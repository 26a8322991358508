"""The property runner and the names and case counts the suite reports."""

import random

import pytest

from graev.suite import _run, run_suite

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
