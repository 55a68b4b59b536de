"""Canonical linear atoms.

An :class:`Atom` is a constraint of the form ``term REL 0`` where ``REL``
is one of ``<=``, ``<`` or ``=``.  Constructors normalize arbitrary
comparisons (``lhs <= rhs`` etc.) to this form, and every atom is
*canonical* from construction on: its term is scaled by a positive
rational so the variable coefficients are ``int`` with gcd 1.  Positive
scaling is exact over the rationals, so it applies to every atom, those
over the rational-valued ``oldrnk`` included; equal constraints up to
scaling are equal (and equally hashed) atoms.  A constant atom scales
to the sign of its constant.

The constant of a canonical atom may still be a fraction.  Over
integer-valued variables :meth:`Atom.tighten_integral` rounds it
(``t + d < 0`` becomes ``t + floor(d) + 1 <= 0``), which improves the
precision of the rational decision procedure; the rounded atom is
computed once and cached.  After tightening, only atoms over
:data:`RATIONAL_VARS` stay strict.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Mapping

from repro.logic.terms import Coeff, LinTerm, _as_term, _norm

#: Names of rational-valued variables.  Program variables are
#: integer-valued, but the auxiliary rank variable of the certificates
#: (``predicates.OLDRNK``) stores ranking-function values, which are
#: rationals (e.g. ``1/6*y + 5/6``); atoms mentioning it may be scaled
#: but must never be rounded over the integers.
RATIONAL_VARS = frozenset({"oldrnk"})


class Rel(enum.Enum):
    """Relation of a normalized atom ``term REL 0``."""

    LE = "<="
    LT = "<"
    EQ = "="

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _canonical(term: LinTerm) -> LinTerm:
    """``term`` scaled by the positive rational that makes its variable
    coefficients coprime integers; a constant term scales to its sign."""
    coeffs = term._coeffs
    if not coeffs:
        d = term._constant
        if d == 0 or d == 1 or d == -1:
            return term
        return LinTerm._make((), 1 if d > 0 else -1)
    divisor = 0
    for _, c in coeffs:
        if type(c) is not int:
            break
        divisor = gcd(divisor, c)
    else:
        if divisor == 1:
            return term
        return LinTerm._make(tuple((name, c // divisor) for name, c in coeffs),
                             _norm(Fraction(term._constant, divisor)), term._vars)
    # some coefficient is a fraction: clear the denominators first
    multiple = lcm(*(c.denominator for _, c in coeffs))
    divisor = gcd(*(c.numerator * (multiple // c.denominator) for _, c in coeffs))
    return term * Fraction(multiple, divisor)


class Atom:
    """A canonical linear constraint ``term rel 0`` (immutable).

    The hash is computed once, at construction; equality short-circuits
    on identity and on a hash mismatch.
    """

    __slots__ = ("_term", "_rel", "_hash", "_tight")

    term: LinTerm = property(attrgetter("_term"))  # type: ignore[assignment]
    rel: Rel = property(attrgetter("_rel"))  # type: ignore[assignment]

    def __init__(self, term: LinTerm, rel: Rel):
        self._term = term = _canonical(term)
        self._rel = rel
        self._hash = hash((term, rel))
        self._tight: Atom | None = None

    @classmethod
    def _make(cls, term: LinTerm, rel: Rel) -> Atom:
        """An atom over an already-canonical term."""
        self = object.__new__(cls)
        self._term = term
        self._rel = rel
        self._hash = hash((term, rel))
        self._tight = None
        return self

    def variables(self) -> frozenset[str]:
        return self._term.variables()

    def is_trivially_true(self) -> bool:
        """Constant atom that always holds."""
        if not self._term.is_constant():
            return False
        c = self._term.constant
        if self._rel is Rel.LE:
            return c <= 0
        if self._rel is Rel.LT:
            return c < 0
        return c == 0

    def is_trivially_false(self) -> bool:
        """Constant atom that never holds."""
        return self._term.is_constant() and not self.is_trivially_true()

    def negate(self) -> Atom:
        """Negation of this atom, when expressible as a single atom.

        ``t <= 0`` negates to ``-t < 0``; ``t < 0`` to ``-t <= 0``.
        Negating an equality is a disjunction, so :func:`negate_atom`
        (returning a list of atoms, one per disjunct) must be used instead.
        """
        if self._rel is Rel.LE:
            return Atom._make(-self._term, Rel.LT)
        if self._rel is Rel.LT:
            return Atom._make(-self._term, Rel.LE)
        raise ValueError("negation of an equality is a disjunction; use negate_atom()")

    def substitute(self, bindings: Mapping[str, LinTerm]) -> Atom:
        return Atom(self._term.substitute(bindings), self._rel)

    def rename(self, mapping: Mapping[str, str]) -> Atom:
        return Atom(self._term.rename(mapping), self._rel)

    def evaluate(self, valuation: Mapping[str, Coeff]) -> bool:
        value = self._term.evaluate(valuation)
        if self._rel is Rel.LE:
            return value <= 0
        if self._rel is Rel.LT:
            return value < 0
        return value == 0

    def tighten_integral(self) -> Atom:
        """The atom tightened over integer-valued variables.

        The coefficients are already coprime integers, so only the
        constant is rounded: ``t + d < 0`` becomes ``t + floor(d) + 1 <=
        0``, a fractional constant of a non-strict atom is
        ceiling-normalized, and an equality with a fractional constant is
        trivially false.  All steps are equivalences over the integers,
        so callers may freely mix tightened and raw atoms.  The result is
        computed once and cached; tightening is idempotent.

        Atoms mentioning a rational-valued variable (:data:`RATIONAL_VARS`,
        i.e. ``oldrnk``) are never rounded: rounding bounds on ``oldrnk``
        manufactures contradictions -- e.g. ``6*oldrnk - y - 5 = 0 and
        3 <= y <= 5`` is satisfiable (at ``oldrnk = 5/3``) but has no
        solution with integral ``oldrnk``, and an unsound "unsat" here
        becomes an unsound accepting state in the powerset modules.
        """
        tight = self._tight
        if tight is None:
            tight = self._tight = self._rounded()
        return tight

    def _rounded(self) -> Atom:
        term = self._term
        if not term._coeffs or not RATIONAL_VARS.isdisjoint(term.variables()):
            return self
        d = term._constant
        if self._rel is Rel.LT:
            # linear + d < 0  over ints  <=>  linear + floor(d) + 1 <= 0
            return _tightened(term, _floor(d) + 1)
        if type(d) is int:
            return self
        if self._rel is Rel.LE:
            # linear <= -d  <=>  linear <= floor(-d)  <=>  linear + ceil(d) <= 0
            return _tightened(term, -_floor(-d))
        # coprime integer coefficients cannot sum to a fraction
        return Atom(LinTerm({}, 1), Rel.EQ)  # trivially false

    # -- value protocol -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Atom):
            return NotImplemented
        return (self._hash == other._hash and self._rel is other._rel
                and self._term == other._term)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # the cached hash is process-specific (str hashing is salted)
        return (Atom, (self._term, self._rel))

    def __repr__(self) -> str:
        return f"Atom(term={self._term!r}, rel={self._rel!r})"

    def __str__(self) -> str:
        return f"{self._term} {self._rel} 0"


def _tightened(term: LinTerm, constant: int) -> Atom:
    """``term`` with a new integral constant, as a (tightened) ``<=`` atom."""
    atom = Atom._make(LinTerm._make(term._coeffs, constant, term._vars), Rel.LE)
    atom._tight = atom
    return atom


def _floor(value: Coeff) -> int:
    return value.numerator // value.denominator


def atom_le(lhs: LinTerm | Coeff, rhs: LinTerm | Coeff) -> Atom:
    """The atom ``lhs <= rhs``."""
    return Atom(_as_term(lhs) - _as_term(rhs), Rel.LE)


def atom_lt(lhs: LinTerm | Coeff, rhs: LinTerm | Coeff) -> Atom:
    """The atom ``lhs < rhs``."""
    return Atom(_as_term(lhs) - _as_term(rhs), Rel.LT)


def atom_ge(lhs: LinTerm | Coeff, rhs: LinTerm | Coeff) -> Atom:
    """The atom ``lhs >= rhs``."""
    return atom_le(rhs, lhs)


def atom_gt(lhs: LinTerm | Coeff, rhs: LinTerm | Coeff) -> Atom:
    """The atom ``lhs > rhs``."""
    return atom_lt(rhs, lhs)


def atom_eq(lhs: LinTerm | Coeff, rhs: LinTerm | Coeff) -> Atom:
    """The atom ``lhs = rhs``."""
    return Atom(_as_term(lhs) - _as_term(rhs), Rel.EQ)


def negate_atom(atom: Atom) -> list[Atom]:
    """Negation of an atom as a disjunction (list) of atoms."""
    if atom.rel is Rel.EQ:
        return [Atom._make(atom.term, Rel.LT), Atom._make(-atom.term, Rel.LT)]
    return [atom.negate()]
