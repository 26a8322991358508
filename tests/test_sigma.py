import itertools

import pytest

from graev.norm import SigmaMatching, enumerate_sigma, is_sigma, noncrossing_involutions

# Non-crossing involution counts for k = 1..8 (the Motzkin numbers).
EXPECTED_COUNTS = (1, 2, 4, 9, 21, 51, 127, 323)


def test_identity_is_in_the_class():
    assert is_sigma([1, 2, 3, 4])


def test_adjacent_transposition_is_in_the_class():
    assert is_sigma([2, 1])


def test_crossing_chords_are_rejected():
    # (1 3)(2 4): the chords 1-3 and 2-4 interleave
    assert not is_sigma([3, 4, 1, 2])


def test_chord_over_fixed_point_is_allowed():
    assert is_sigma([3, 2, 1])


def test_non_involution_is_rejected():
    assert not is_sigma([2, 3, 1])


def test_is_sigma_requires_a_permutation():
    with pytest.raises(ValueError, match="permutation"):
        is_sigma([1, 1])
    with pytest.raises(ValueError, match="permutation"):
        is_sigma([2, 3])


def test_enumerate_k1():
    assert {m.map for m in enumerate_sigma(1)} == {(1,)}


def test_enumerate_k2():
    assert {m.map for m in enumerate_sigma(2)} == {(1, 2), (2, 1)}


def test_enumerate_k3():
    expected = {(1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 2, 1)}
    assert {m.map for m in enumerate_sigma(3)} == expected


def test_enumeration_counts_match_motzkin_numbers():
    for k, expected in enumerate(EXPECTED_COUNTS, 1):
        assert len(enumerate_sigma(k)) == expected


def test_literal_filter_equals_structural_generator_small_k():
    for k in range(1, 9):
        assert {m.map for m in enumerate_sigma(k)} == noncrossing_involutions(k)


def test_full_permutation_filter_equals_structural_generator():
    # independent of the involution pre-filter used by enumerate_sigma
    for k in range(1, 7):
        literal = {
            alpha
            for alpha in itertools.permutations(range(1, k + 1))
            if is_sigma(alpha)
        }
        assert literal == noncrossing_involutions(k)


def test_structural_sets_are_built_once_and_handed_out_as_copies():
    first, second = noncrossing_involutions(5), noncrossing_involutions(5)
    assert first == second and first is not second and len(first) == 21
    first.clear()
    assert noncrossing_involutions(5) == second and len(second) == 21


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_sigma(0)
    with pytest.raises(ValueError):
        enumerate_sigma(11)


def test_matching_pairs_and_fixed_points():
    matching = SigmaMatching((3, 2, 1))
    assert matching.pairs() == [(1, 3)]
    assert matching.fixed() == [2]

