"""Tests for atoms, conjunctions and the Fourier--Motzkin engine.

The decision procedure is cross-checked against brute-force enumeration
over a small integer grid (hypothesis generates random conjunctions);
the run-scoped elimination memo is checked against fresh eliminations.
"""

import json
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults as faults
from repro.benchgen.programs import program_suite
from repro.core.api import prove_termination
from repro.core.budget import Budget, ResourceExhausted, use_budget
from repro.core.codec import atom_from_dict, atom_to_dict
from repro.core.config import AnalysisConfig
from repro.core.refinement import RefinementEngine
from repro.faults import FaultPlan
from repro.logic import fourier_motzkin as fm
from repro.logic.atoms import (Atom, Rel, atom_eq, atom_ge, atom_gt, atom_le,
                               atom_lt, negate_atom)
from repro.logic.fourier_motzkin import eliminate, find_model, satisfiable
from repro.logic.linconj import FALSE, TRUE, LinConj, conj
from repro.logic.lp import LinearProgram, LPStatus
from repro.logic.terms import term, var
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.ranking.farkas import relation_matrix

x, y, z = var("x"), var("y"), var("z")


# -- atoms -------------------------------------------------------------------

def test_atom_normalization():
    a = atom_le(x + 1, y)
    assert a.rel is Rel.LE
    assert a.term == x - y + 1


def test_atom_trivial():
    assert atom_le(0, 1).is_trivially_true()
    assert atom_lt(1, 0).is_trivially_false()
    assert atom_eq(term({}, 2), 2).is_trivially_true()
    assert not atom_le(x, 0).is_trivially_true()


def test_atom_negate():
    a = atom_le(x, 0)
    n = a.negate()
    assert n.rel is Rel.LT and n.term == -x
    with pytest.raises(ValueError):
        atom_eq(x, 0).negate()
    branches = negate_atom(atom_eq(x, 0))
    assert len(branches) == 2


def test_atom_evaluate():
    assert atom_lt(x, y).evaluate({"x": 1, "y": 2})
    assert not atom_lt(x, y).evaluate({"x": 2, "y": 2})
    assert atom_le(x, y).evaluate({"x": 2, "y": 2})


def test_integral_tightening():
    a = atom_lt(x, 3).tighten_integral()       # x < 3  ->  x <= 2
    assert a.rel is Rel.LE and a.term == x - 2
    b = atom_le(x, Fraction(5, 2)).tighten_integral()  # x <= 5/2 -> x <= 2
    assert b.term == x - 2
    # fractional coefficients are scaled first: x/2 < 1 == x < 2 -> x <= 1
    c = atom_lt(Fraction(1, 2) * x, 1).tighten_integral()
    assert c.rel is Rel.LE and c.term == x - 1
    # scaled gcd reduction: 2x <= 5 -> x <= 5/2 -> x <= 2
    d = atom_le(2 * x, 5).tighten_integral()
    assert d.term == x - 2
    # integral equality with fractional constant is unsatisfiable
    e = atom_eq(2 * x, 5).tighten_integral()
    assert e.is_trivially_false()


def test_tightening_never_rounds_oldrnk():
    # oldrnk is rational-valued (it stores ranking values like y/6+5/6),
    # so atoms mentioning it are scaled but never rounded; rounding used
    # to turn the satisfiable certificate below into "unsat" and create
    # unsound accepting states in the powerset modules.
    r = var("oldrnk")
    a = atom_eq(2 * r, 5).tighten_integral()
    assert not a.is_trivially_false()
    b = atom_le(r, Fraction(5, 3)).tighten_integral()
    assert b.evaluate({"oldrnk": Fraction(5, 3)})
    c = atom_lt(r, Fraction(5, 3)).tighten_integral()
    assert c.rel is Rel.LT
    assert c.evaluate({"oldrnk": Fraction(3, 2)})
    # the concrete conjunction from the soundness regression:
    # 6*oldrnk - y - 5 = 0  &  3 <= y <= 5   (sat at y=5, oldrnk=5/3)
    atoms = [atom_eq(6 * r - y, 5), atom_ge(y, 3), atom_le(y, 5)]
    assert satisfiable(atoms)
    model = find_model(atoms)
    assert model is not None and 6 * model["oldrnk"] - model["y"] == 5
    # canonical scaling is exact over the rationals, so it applies to
    # oldrnk atoms too: oldrnk = y/6 + 5/6 is the same atom, and scaling
    # keeps the fractional model that rounding would lose
    scaled = atom_eq(r, Fraction(1, 6) * y + Fraction(5, 6))
    assert scaled == atoms[0] and hash(scaled) == hash(atoms[0])
    assert scaled.term.coeffs == {"oldrnk": 6, "y": -1}
    assert scaled.tighten_integral() is scaled
    assert scaled.evaluate({"oldrnk": Fraction(5, 3), "y": 5})
    assert satisfiable([scaled, atom_ge(y, 3), atom_le(y, 5)])


# -- conjunctions --------------------------------------------------------------

def test_conj_basics():
    c = conj(atom_gt(x, 0), atom_lt(x, 5))
    assert c.is_sat()
    assert c.entails_atom(atom_le(x, 10))
    assert not c.entails_atom(atom_le(x, 3))
    assert TRUE.is_sat() and TRUE.is_true()
    assert FALSE.is_unsat()


def test_conj_dedupes_and_drops_trivial():
    c = conj(atom_le(x, 1), atom_le(x, 1), atom_le(0, 5))
    assert len(c.atoms) == 1


def test_strict_cycle_unsat():
    assert conj(atom_lt(x, y), atom_lt(y, x)).is_unsat()
    assert conj(atom_le(x, y), atom_le(y, x), atom_eq(x, y)).is_sat()


def test_equality_pivoting():
    c = conj(atom_eq(x, y + 1), atom_eq(y, 4), atom_le(x, 5))
    assert c.is_sat()
    assert c.entails_atom(atom_eq(x, 5))
    d = c.and_(atom_le(x, 4))
    assert d.is_unsat()


def test_integer_tightening_gives_int_unsat():
    # 0 < x < 1 has no integer solution; tightening finds the conflict.
    c = conj(atom_gt(x, 0), atom_lt(x, 1))
    assert c.is_unsat()


def test_rational_mode_without_tightening():
    assert satisfiable([atom_gt(x, 0).tighten_integral()]) is True
    assert satisfiable([atom_gt(x, 0), atom_lt(x, 1)], tighten=False) is True


def test_projection():
    c = conj(atom_le(x, y), atom_le(y, z))
    p = c.project_away(["y"])
    assert p.entails_atom(atom_le(x, z))
    assert not p.entails_atom(atom_le(z, x))
    assert "y" not in p.variables()


def test_projection_of_unsat_is_false():
    c = conj(atom_lt(x, y), atom_lt(y, x))
    assert c.project_away(["y"]).is_unsat()


def test_entails_conjunction():
    c = conj(atom_eq(x, 2), atom_eq(y, 3))
    assert c.entails(conj(atom_le(x, y), atom_ge(x + y, 5)))
    assert not c.entails(conj(atom_le(y, x)))


def test_unsat_entails_everything():
    assert FALSE.entails(conj(atom_eq(x, 99)))


def test_equivalent():
    a = conj(atom_le(x, 3), atom_le(3, x))
    b = conj(atom_eq(x, 3))
    assert a.equivalent(b)


def test_find_model_prefers_integers():
    m = conj(atom_gt(x, Fraction(1, 2)), atom_lt(x, 10)).find_model()
    assert m is not None and m["x"].denominator == 1


def test_find_model_prefer_hint():
    m = conj(atom_ge(x, 0), atom_le(x, 100)).find_model(prefer={"x": Fraction(42)})
    assert m is not None and m["x"] == 42


def test_find_model_none_when_unsat():
    assert conj(atom_lt(x, x)).find_model() is None


def test_substitute_and_rename():
    c = conj(atom_le(x, y))
    assert c.substitute({"x": y}).is_sat()
    r = c.rename({"x": "a", "y": "b"})
    assert r.variables() == {"a", "b"}


def test_eliminate_equalities_only():
    atoms = [atom_eq(x, y), atom_eq(y, z), atom_lt(z, 0)]
    remaining = eliminate(atoms, ["x", "y"])
    assert remaining is not None
    assert satisfiable(remaining)


# -- brute-force cross-check ----------------------------------------------------

GRID = range(-3, 4)


def brute_force_sat(atoms, names):
    """Enumerate the integer grid; True iff some point satisfies all atoms."""
    names = sorted(names)

    def rec(i, valuation):
        if i == len(names):
            return all(a.evaluate(valuation) for a in atoms)
        return any(rec(i + 1, {**valuation, names[i]: v}) for v in GRID)

    return rec(0, {})


@st.composite
def small_atoms(draw):
    names = ["x", "y"]
    coeffs = {n: draw(st.integers(-2, 2)) for n in names}
    constant = draw(st.integers(-3, 3))
    rel = draw(st.sampled_from([Rel.LE, Rel.LT, Rel.EQ]))
    return Atom(term(coeffs, constant), rel)


@settings(max_examples=200, deadline=None)
@given(st.lists(small_atoms(), min_size=1, max_size=4))
def test_sat_agrees_with_bruteforce_on_integer_grid(atoms):
    names = {n for a in atoms for n in a.variables()}
    fm_sat = satisfiable(atoms, tighten=False)
    grid_sat = brute_force_sat(atoms, names)
    # Rational satisfiability over-approximates integer-grid satisfiability.
    if grid_sat:
        assert fm_sat, f"grid-sat but FM-unsat: {[str(a) for a in atoms]}"
    if not fm_sat:
        assert not grid_sat


@settings(max_examples=200, deadline=None)
@given(st.lists(small_atoms(), min_size=1, max_size=4))
def test_find_model_satisfies_input(atoms):
    model = find_model(atoms)
    if model is not None:
        full = {n: model.get(n, Fraction(0))
                for a in atoms for n in a.variables()}
        assert all(a.evaluate(full) for a in atoms)
    else:
        assert not satisfiable(atoms)


@settings(max_examples=100, deadline=None)
@given(st.lists(small_atoms(), min_size=1, max_size=3), small_atoms())
def test_entailment_respected_by_models(atoms, goal):
    c = LinConj(atoms)
    if c.entails_atom(goal):
        model = c.find_model()
        # entailment is decided with integer tightening, so only integer
        # models are bound by it (a fractional model may escape a goal
        # that holds for every *integer* solution)
        if model is not None and all(v.denominator == 1 for v in model.values()):
            full = {n: model.get(n, Fraction(0))
                    for n in goal.variables() | c.variables()}
            assert goal.evaluate(full)


@settings(max_examples=100, deadline=None)
@given(st.lists(small_atoms(), min_size=1, max_size=3))
def test_projection_preserves_satisfiability(atoms):
    c = LinConj(atoms)
    p = c.project_away(["x"])
    assert p.is_sat() == c.is_sat()


# -- canonical atoms and exactness -------------------------------------------------

def _primitive(atom):
    """Integer coefficients with gcd 1 (a constant atom has none)."""
    coeffs = list(atom.term.coeffs.values())
    return (all(type(c) is int for c in coeffs)
            and (not coeffs or math.gcd(*coeffs) == 1))


def _exact_value(value):
    """An exact rational in integer-normal form: never a float, and a
    Fraction only when it is not integral."""
    return type(value) is int or (type(value) is Fraction
                                  and value.denominator != 1)


mixed_coeffs = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6))


@st.composite
def mixed_atoms(draw, names=("x", "y", "z")):
    coeffs = {n: draw(mixed_coeffs) for n in names}
    if draw(st.booleans()):
        coeffs["oldrnk"] = draw(mixed_coeffs)
    rel = draw(st.sampled_from([Rel.LE, Rel.LT, Rel.EQ]))
    return Atom(term(coeffs, draw(mixed_coeffs)), rel)


positive_scales = st.fractions(min_value=Fraction(1, 7), max_value=7,
                               max_denominator=7).filter(lambda k: k > 0)


@settings(max_examples=200, deadline=None)
@given(mixed_atoms(), positive_scales)
def test_atoms_are_canonical_up_to_positive_scaling(atom, k):
    scaled = Atom(atom.term * k, atom.rel)
    assert scaled == atom and hash(scaled) == hash(atom)
    assert scaled.term == atom.term
    assert _primitive(atom)
    assert _exact_value(atom.term.constant)
    # a negative scale flips the relation's direction: a different atom
    if atom.rel is not Rel.EQ and not atom.term.is_constant():
        assert Atom(atom.term * -k, atom.rel) != atom


@settings(max_examples=200, deadline=None)
@given(mixed_atoms())
def test_tightening_is_idempotent_and_canonical(atom):
    tight = atom.tighten_integral()
    assert tight.tighten_integral() == tight
    assert tight.tighten_integral().tighten_integral() is tight.tighten_integral()
    assert atom.tighten_integral() is tight  # cached on the atom
    assert _primitive(tight)
    if "oldrnk" in atom.variables():
        assert tight is atom  # rational-valued: never rounded
    elif not atom.term.is_constant():
        assert type(tight.term.constant) is int or tight.is_trivially_false()
        assert tight.rel is not Rel.LT


@settings(max_examples=100, deadline=None)
@given(mixed_atoms())
def test_atoms_survive_pickle_and_codec_round_trips(atom):
    # the race, pool, checkpoint and library paths ship atoms this way
    for copy in (pickle.loads(pickle.dumps(atom)),
                 atom_from_dict(json.loads(json.dumps(atom_to_dict(atom))))):
        assert copy == atom and hash(copy) == hash(atom)
        assert _primitive(copy)
        assert copy.tighten_integral() == atom.tighten_integral()


def test_pickled_atoms_rehash_under_another_hash_seed(tmp_path):
    # str hashing is salted per process: an atom or term shipped to a
    # process with another seed must not carry its old cached hash
    atom = atom_le(x + 2 * y, Fraction(7, 2))
    blob = tmp_path / "atom.pickle"
    blob.write_bytes(pickle.dumps((atom, atom.term)))
    code = ("import pickle, sys\n"
            "from fractions import Fraction\n"
            "from repro.logic.atoms import atom_le\n"
            "from repro.logic.terms import var\n"
            "a, t = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "b = atom_le(var('x') + 2 * var('y'), Fraction(7, 2))\n"
            "print(a in {b}, t in {b.term})\n")
    src = Path(__file__).resolve().parent.parent / "src"
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code, str(blob)], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["True", "True"]


def test_atoms_are_immutable():
    atom = atom_le(x, 1)
    with pytest.raises(AttributeError):
        atom.term = y
    with pytest.raises(AttributeError):
        atom.rel = Rel.LT


@settings(max_examples=150, deadline=None)
@given(st.lists(mixed_atoms(), min_size=1, max_size=4),
       st.lists(st.sampled_from(["x", "y", "z", "oldrnk"]), max_size=3,
                unique=True),
       st.one_of(st.integers(1, 5), st.integers(-5, -1),
                 st.fractions(min_value=Fraction(1, 5), max_value=5,
                              max_denominator=5).filter(lambda k: k != 0)))
def test_no_float_ever_leaves_the_solver(atoms, names, k):
    projected = eliminate(atoms, names)
    for atom in projected or ():
        assert _primitive(atom)
        assert _exact_value(atom.term.constant)
    model = find_model(atoms)
    if model is not None:
        assert all(type(v) in (int, Fraction) for v in model.values())
    for atom in atoms:
        quotient = atom.term / k
        values = [*quotient.coeffs.values(), quotient.constant]
        assert all(_exact_value(v) for v in values)
        assert quotient * k == atom.term
    # LP solutions over the Farkas relation rows stay exact too
    columns = sorted({n for a in atoms for n in a.variables()})
    matrix = relation_matrix(LinConj(atoms), columns)
    assert not any(isinstance(v, float)
                   for row in matrix.rows for v in row + matrix.bounds)
    lp = LinearProgram()
    cols = [lp.new_var(name, lower=None) for name in columns]
    for row, bound in zip(matrix.rows, matrix.bounds):
        lp.add_le(dict(zip(cols, row)), bound)
    result = lp.check_feasible()
    if result.status is LPStatus.OPTIMAL:
        point = {name: result.assignment[c] for name, c in zip(columns, cols)}
        assert all(type(v) is Fraction for v in point.values())
        for row, bound in zip(matrix.rows, matrix.bounds):
            assert sum(a * point[n] for a, n in zip(row, columns)) <= bound


# -- the run-scoped elimination memo ----------------------------------------------

def _suite_program(name):
    return next(p for p in program_suite() if p.name == name).parse()


def _capture_run_memos(monkeypatch):
    """Record the memo each engine run scopes, as the run sees it."""
    memos = []
    refine = RefinementEngine._refine

    def spy(self, *args, **kwargs):
        result = refine(self, *args, **kwargs)
        memos.append(fm._MEMO)
        return result

    monkeypatch.setattr(RefinementEngine, "_refine", spy)
    return memos


WIDE = [atom_le(x + y, 4), atom_ge(x - y, -2), atom_lt(z, x),
        atom_le(y, z + 3), atom_ge(x, 0)]


def test_memo_hit_equals_fresh_elimination_and_charges_nothing():
    registry = MetricsRegistry()
    budget = Budget()
    with use_registry(registry), use_budget(budget), fm.use_memo() as memo:
        first = eliminate(WIDE, ["x", "y"])
        checks = budget.fm_checks
        assert checks > 0
        again = eliminate(WIDE, ["x", "y"])
        assert budget.fm_checks == checks
        # a hit hands out a copy: mutating it cannot corrupt the memo
        again.append(atom_lt(z, 0))
        third = eliminate(WIDE, ["x", "y"])
        assert eliminate(WIDE + [atom_lt(z, z)], ["x"]) is None
        assert eliminate(WIDE + [atom_lt(z, z)], ["x"]) is None
    assert first == eliminate(WIDE, ["x", "y"]) == third
    assert len(memo) == 2
    counters = registry.snapshot()["counters"]
    assert counters["logic.fm.eliminations"] == 2
    assert counters["logic.fm.memo_hits"] == 3


def test_memo_stores_nothing_on_constraint_cap_overrun():
    budget = Budget(fm_constraint_cap=2)
    with use_budget(budget), fm.use_memo() as memo:
        with pytest.raises(ResourceExhausted):
            eliminate(WIDE, ["x", "y"])
        assert memo == {}
    assert fm._MEMO is None


def test_memo_is_scoped_to_one_analysis(monkeypatch):
    memos = _capture_run_memos(monkeypatch)
    assert fm._MEMO is None
    result = prove_termination(_suite_program("count_down"))
    assert result.verdict.value == "terminating"
    assert fm._MEMO is None
    assert len(memos) == 1 and memos[0]
    assert result.stats.counter("logic.fm.memo_hits") > 0


def test_consecutive_analyses_report_identical_solver_counters():
    def logic_counters():
        result = prove_termination(_suite_program("sort"))
        assert result.verdict.value == "terminating"
        return {k: v for k, v in result.stats.metrics["counters"].items()
                if k.startswith("logic.")}

    first = logic_counters()
    assert first["logic.fm.eliminations"] > 0
    assert logic_counters() == first


def test_memo_entries_are_honest_under_adversarial_faults(monkeypatch):
    memos = _capture_run_memos(monkeypatch)
    plan = FaultPlan(seed=3, wrong_answer_rate=0.15)
    with faults.use_plan(plan):
        prove_termination(_suite_program("sort"), AnalysisConfig(timeout=20))
        flips = faults.injected_counts()["solver.entailment"]["flip"]
    assert flips > 0
    (memo,) = memos
    assert memo
    for (atoms, names, tighten), stored in memo.items():
        clean = eliminate(atoms, names, tighten=tighten)
        assert (None if clean is None else tuple(clean)) == stored
