"""Immutable linear terms over named variables.

A :class:`LinTerm` represents ``c_1*x_1 + ... + c_n*x_n + d`` with exact
rational coefficients.  Terms are hashable values: all operations return
new terms.

Coefficients are kept *integer-normal*: an integral value is stored as an
``int``, only a non-integral one as a :class:`~fractions.Fraction`.  Both
are exact :class:`numbers.Rational` values and compare and hash alike, so
callers never need to care which one they get -- except for division:
``int / int`` is a float in Python, so every division that may see two
ints goes through ``Fraction`` first (as :meth:`LinTerm.__truediv__` does).
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Union

Coeff = Union[int, Fraction]


def _exact(value: Coeff) -> Coeff:
    """``value`` as an exact rational in integer-normal form."""
    kind = type(value)
    if kind is int:
        return value
    if kind is not Fraction:
        if not isinstance(value, Rational):
            raise TypeError(f"expected an exact rational, got {value!r} "
                            f"({type(value).__name__})")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _norm(value: Coeff) -> Coeff:
    """Integer-normal form of an arithmetic result of exact rationals."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


class LinTerm:
    """A linear term ``sum(coeffs[v] * v) + constant``.

    Coefficients and the constant are ``int`` when integral and
    ``Fraction`` otherwise (see the module docstring).
    """

    __slots__ = ("_coeffs", "_constant", "_hash", "_vars")

    def __init__(self, coeffs: Mapping[str, Coeff] | None = None, constant: Coeff = 0):
        items = []
        if coeffs:
            for name, c in coeffs.items():
                c = _exact(c)
                if c != 0:
                    items.append((name, c))
        items.sort()
        self._coeffs: tuple[tuple[str, Coeff], ...] = tuple(items)
        self._constant: Coeff = _exact(constant)
        self._hash: int | None = None
        self._vars: frozenset[str] | None = None

    @classmethod
    def _make(cls, coeffs: tuple[tuple[str, Coeff], ...], constant: Coeff,
              names: frozenset[str] | None = None) -> LinTerm:
        """A term from already-canonical parts: name-sorted, nonzero,
        integer-normal coefficients and an integer-normal constant.
        ``names``, when known, is the variable set of ``coeffs``; terms
        over the same variables share it."""
        self = object.__new__(cls)
        self._coeffs = coeffs
        self._constant = constant
        self._hash = None
        self._vars = names
        return self

    @property
    def coeffs(self) -> dict[str, Coeff]:
        """Variable -> coefficient mapping (zero coefficients omitted)."""
        return dict(self._coeffs)

    @property
    def constant(self) -> Coeff:
        return self._constant

    def coeff(self, name: str) -> Coeff:
        """Coefficient of variable ``name`` (0 if absent)."""
        for var_name, c in self._coeffs:
            if var_name == name:
                return c
        return 0

    def variables(self) -> frozenset[str]:
        names = self._vars
        if names is None:
            names = self._vars = frozenset(name for name, _ in self._coeffs)
        return names

    def is_constant(self) -> bool:
        return not self._coeffs

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: LinTerm | Coeff) -> LinTerm:
        if type(other) is not LinTerm:
            other = _as_term(other)
        constant = _norm(self._constant + other._constant)
        if not other._coeffs:
            return LinTerm._make(self._coeffs, constant, self._vars)
        if not self._coeffs:
            return LinTerm._make(other._coeffs, constant, other._vars)
        acc = dict(self._coeffs)
        for name, c in other._coeffs:
            mine = acc.get(name)
            acc[name] = c if mine is None else _norm(mine + c)
        return LinTerm._make(_sorted_nonzero(acc), constant)

    __radd__ = __add__

    def __neg__(self) -> LinTerm:
        return LinTerm._make(tuple((name, -c) for name, c in self._coeffs),
                             -self._constant, self._vars)

    def __sub__(self, other: LinTerm | Coeff) -> LinTerm:
        return self + (-_as_term(other))

    def __rsub__(self, other: LinTerm | Coeff) -> LinTerm:
        return _as_term(other) + (-self)

    def __mul__(self, scalar: Coeff) -> LinTerm:
        s = _exact(scalar)
        if s == 1:
            return self
        if s == 0:
            return LinTerm._make((), 0)
        return LinTerm._make(tuple((name, _norm(c * s)) for name, c in self._coeffs),
                             _norm(self._constant * s), self._vars)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Coeff) -> LinTerm:
        s = _exact(scalar)
        if s == 0:
            raise ZeroDivisionError("division of a linear term by zero")
        return self * (Fraction(1) / s)

    # -- substitution and evaluation -----------------------------------------

    def substitute(self, bindings: Mapping[str, "LinTerm"]) -> LinTerm:
        """Replace each variable in ``bindings`` by the given term
        (simultaneously)."""
        acc: dict[str, Coeff] = {}
        constant = self._constant
        for name, c in self._coeffs:
            bound = bindings.get(name)
            if bound is None:
                mine = acc.get(name)
                acc[name] = c if mine is None else mine + c
                continue
            if type(bound) is not LinTerm:
                bound = _as_term(bound)
            constant += c * bound._constant
            for other, b in bound._coeffs:
                mine = acc.get(other)
                acc[other] = c * b if mine is None else mine + c * b
        for name, c in acc.items():
            acc[name] = _norm(c)
        return LinTerm._make(_sorted_nonzero(acc), _norm(constant))

    def rename(self, mapping: Mapping[str, str]) -> LinTerm:
        """Rename variables according to ``mapping`` (missing names kept)."""
        acc: dict[str, Coeff] = {}
        for name, c in self._coeffs:
            new = mapping.get(name, name)
            mine = acc.get(new)
            acc[new] = c if mine is None else _norm(mine + c)
        return LinTerm._make(_sorted_nonzero(acc), self._constant)

    def evaluate(self, valuation: Mapping[str, Coeff]) -> Coeff:
        """Evaluate under a total valuation of this term's variables."""
        total = self._constant
        for name, c in self._coeffs:
            if name not in valuation:
                raise KeyError(f"valuation missing variable {name!r}")
            total += c * _exact(valuation[name])
        return _norm(total)

    # -- value protocol -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LinTerm):
            return NotImplemented
        return self._coeffs == other._coeffs and self._constant == other._constant

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self._coeffs, self._constant))
        return h

    def __reduce__(self):
        # the cached hash is process-specific (str hashing is salted)
        return (LinTerm, (dict(self._coeffs), self._constant))

    def __repr__(self) -> str:
        return f"LinTerm({self})"

    def __str__(self) -> str:
        parts: list[str] = []
        for name, c in self._coeffs:
            if c == 1:
                piece = name
            elif c == -1:
                piece = f"-{name}"
            else:
                piece = f"{c}*{name}"
            if parts and not piece.startswith("-"):
                parts.append(f"+ {piece}")
            elif parts:
                parts.append(f"- {piece[1:]}")
            else:
                parts.append(piece)
        if self._constant != 0 or not parts:
            c = self._constant
            if parts:
                parts.append(f"+ {c}" if c > 0 else f"- {-c}")
            else:
                parts.append(str(c))
        return " ".join(parts)


def _sorted_nonzero(acc: Mapping[str, Coeff]) -> tuple[tuple[str, Coeff], ...]:
    return tuple(sorted(item for item in acc.items() if item[1] != 0))


def _as_term(value: LinTerm | Coeff) -> LinTerm:
    if isinstance(value, LinTerm):
        return value
    return LinTerm._make((), _exact(value))


def var(name: str) -> LinTerm:
    """The term consisting of a single variable."""
    return LinTerm({name: 1})


def const(value: Coeff) -> LinTerm:
    """A constant term."""
    return LinTerm({}, value)


def term(coeffs: Mapping[str, Coeff] | Iterable[tuple[str, Coeff]] | None = None,
         constant: Coeff = 0) -> LinTerm:
    """Build a term from a coefficient mapping and a constant."""
    if coeffs is not None and not isinstance(coeffs, Mapping):
        coeffs = dict(coeffs)
    return LinTerm(coeffs, constant)
