"""The property runner and the names and case counts the suite reports."""

import random

import pytest

import graev.suite as suite
from graev.cli import main
from graev.spaces import INTERVAL, star_space
from graev.suite import _run, _tilde_axioms, random_letter, run_suite
from graev.words import Letter

# (property, cases at --cases 0, cases at --cases 28), in run order; the
# exhaustive properties keep their count, cross-basis-agreement counts pairs
PINNED = [
    ("reduction-confluent", 0, 28),
    ("inverse-cancels", 0, 28),
    ("basis-substitution-roundtrip", 0, 28),
    ("tilde-dist-axioms-finite-exhaustive", 164, 164),
    ("tilde-dist-axioms-interval-random", 0, 28),
    ("tilde-dist-sign-rules", 0, 28),
    ("sigma-motzkin-counts", 8, 8),
    ("sigma-structural-equality", 8, 8),
    ("oracle-dp-equals-bruteforce", 0, 28),
    ("oracle-matching-consistent", 0, 28),
    ("norm-zero-iff-identity", 0, 28),
    ("norm-symmetric-under-inversion", 0, 28),
    ("norm-subadditive", 0, 28),
    ("norm-representation-independent", 0, 28),
    ("norm-conjugation-invariant", 0, 28),
    ("norm-cyclic-shift-invariant", 0, 28),
    ("metric-extends-point-distances", 0, 28),
    ("norm-letter-sum-upper-bound", 0, 28),
    ("metric-axioms-on-words", 0, 28),
    ("contraction-norm-monotone", 0, 28),
    ("scaling-norm-exact", 0, 28),
    ("certificate-transport-verifies", 0, 28),
    ("partial-extension-agrees-on-anchors", 0, 28),
    ("partial-extension-slopes-bounded", 0, 28),
    ("partial-extension-lipschitz-pairs", 0, 28),
    ("ball-decomposition-equivalence", 0, 28),
    ("conjugate-products-stay-in-ball", 0, 28),
    ("star-norm-integral", 0, 28),
    ("grid-rescale-norm-law", 0, 28),
    ("cross-basis-agreement", 2, 56),
    ("conjugate-product-pigeonhole", 0, 28),
    ("obstruction-fires-on-skew-powers", 6, 6),
    ("obstruction-silent-on-reducible-words", 0, 28),
]


@pytest.mark.parametrize("column, cases", [(1, 0), (2, 28)])
def test_property_names_and_case_counts_are_pinned(column, cases):
    got = [(r.name, r.cases) for r in run_suite("all", 0, cases=cases)]
    assert got == [(row[0], row[column]) for row in PINNED]


def test_run_counts_failures_and_keeps_the_first_counterexample():
    draws = []

    def check(rng, _):
        draws.append(rng.random())
        index = len(draws) - 1
        return f"case {index}" if index in (2, 5, 6) else None

    result = _run("runner-probe", 8, check, 3)
    assert (result.name, result.cases, result.failures) == ("runner-probe", 8, 3)
    assert result.counterexample == "case 2" and not result.passed
    # every case draws from the one generator seeded by (seed, name)
    expected = random.Random("3:runner-probe")
    assert draws == [expected.random() for _ in range(8)]


def test_run_hands_each_case_the_next_cycle_value():
    seen = []
    result = _run("cycle-probe", 7, lambda rng, m: seen.append(m), 0, (2, 3, 4))
    assert seen == [2, 3, 4, 2, 3, 4, 2]
    assert (result.cases, result.failures, result.counterexample) == (7, 0, None)


def test_random_letter_draws_the_base_point_at_its_rate_with_either_sign():
    for space in (star_space(3), INTERVAL):
        rng = random.Random(0)
        letters = [random_letter(rng, space, base_prob=0.25) for _ in range(400)]
        base_signs = [x.sign for x in letters if x.point == space.base]
        assert 60 < len(base_signs) < 140 and set(base_signs) == {1, -1}
        assert all(random_letter(rng, space).point != space.base for _ in range(100))


# d~ over (e1, e2, e3) of the rank-3 star, each table breaking one axiom at
# (e1, e2) and (e2, e1) only: a zero between distinct letters, an asymmetry,
# and a triangle broken only through the last letter (a negative distance
# would break the triangle at (e1, e1) too, as 0 > 2 d~(e1, e2))
BROKEN_TABLES = {
    "zero": [[0, 0, 2], [0, 0, 2], [2, 2, 0]],
    "asymmetric": [[0, 1, 2], [2, 0, 2], [2, 2, 0]],
    "triangle": [[0, 3, 1], [3, 0, 1], [1, 1, 0]],
}


@pytest.mark.parametrize("table", BROKEN_TABLES.values(), ids=BROKEN_TABLES)
def test_axiom_routine_names_each_broken_pair(monkeypatch, table):
    letters = [Letter("e1"), Letter("e2"), Letter("e3")]
    monkeypatch.setattr(suite, "_tilde_table", lambda *_: (table, 1))
    broken = {1: "axiom broke at (e1, e2)", 3: "axiom broke at (e2, e1)"}
    assert list(_tilde_axioms(letters, star_space(3))) == [broken.get(i) for i in range(9)]


def test_a_broken_table_fails_both_axiom_properties_and_the_suite_command(monkeypatch, capsys):
    real = suite._tilde_table

    def asymmetric(letters, space):
        d, scale = real(letters, space)
        d[0][1] += scale  # d~(x_0, x_1) no longer equals d~(x_1, x_0)
        return d, scale

    monkeypatch.setattr(suite, "_tilde_table", asymmetric)
    finite, interval, _ = suite.spaces_suite(0, 5)
    # star2's alphabet starts with the base letters e and e^-1, one group element
    assert (finite.cases, finite.counterexample) == (164, "axiom broke at (e, e^-1)")
    assert 0 < finite.failures < finite.cases
    assert (interval.cases, interval.failures) == (5, 5)
    assert interval.counterexample.startswith("axiom broke at (")
    code = main(["suite", "--select", "spaces", "--cases", "5"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "counterexample[tilde-dist-axioms-finite-exhaustive]: axiom broke at (e, e^-1)" in lines
    assert lines[-1] == "RESULT: FAIL (3 properties, 3 failing)"
