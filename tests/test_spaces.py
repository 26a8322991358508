import itertools
import json
import random

import pytest

from fractions import Fraction

from graev.norm import norm_dp
from graev.spaces import (
    INTERVAL,
    SPACE_RANK_MAX,
    FiniteSpace,
    builtin_space,
    chain_space,
    load_space,
    space_from_json,
    space_to_json,
    star_space,
    tilde_dist,
)
from graev.words import Letter, Word, signed_alphabet

STAR3 = star_space(3)
TRIANGLE = FiniteSpace(
    "e", ("e", "a", "b"), {("e", "a"): Fraction(1), ("e", "b"): Fraction(1), ("a", "b"): Fraction(2, 3)}
)


def _reference_tilde_dist(a, b, space):
    """The ``tilde_dist`` that each space's ``integer_costs`` replaced, kept verbatim."""
    pa, pb = a.point, b.point
    if not space.contains(pa):
        raise ValueError(f"letter point {pa!r} is not in the space")
    if not space.contains(pb):
        raise ValueError(f"letter point {pb!r} is not in the space")
    sa = 1 if pa == space.base else a.sign
    sb = 1 if pb == space.base else b.sign
    if sa == sb:
        return space.dist(pa, pb)
    return space.dist(pa, space.base) + space.dist(space.base, pb)


def _assert_same_as_reference(letters, space):
    for a in letters:
        for b in letters:
            got = tilde_dist(a, b, space)
            assert type(got) is Fraction
            assert got == _reference_tilde_dist(a, b, space), (a, b)


def _error(call) -> str:
    with pytest.raises(ValueError) as raised:
        call()
    return str(raised.value)


def test_star_space_is_a_metric():
    # rebuilt from its full table, both orders and the diagonal included
    assert FiniteSpace(STAR3.base, STAR3.points, STAR3.table) == STAR3


def test_interval_is_a_metric():
    grid = [Fraction(p, 6) for p in range(7)]
    for a, b in itertools.product(grid, repeat=2):
        assert INTERVAL.dist(a, b) == INTERVAL.dist(b, a) and (INTERVAL.dist(a, b) == 0) == (a == b)
        assert all(INTERVAL.dist(a, b) <= INTERVAL.dist(a, c) + INTERVAL.dist(c, b) for c in grid)


def test_triangle_violation_is_reported():
    entries = {("a", "b"): Fraction(5), ("a", "e"): Fraction(1), ("e", "b"): Fraction(1)}
    message = _error(lambda: FiniteSpace("e", ("e", "a", "b"), entries))
    assert message == "not a metric: triangle violated at (a, e, b)"


def test_constructor_validates_by_default():
    # a copy or a pickle rebuilds through the constructor, so a tampered
    # table is checked there as well
    rebuild, (base, points, table) = TRIANGLE.__reduce__()
    broken = {**table, ("a", "b"): Fraction(5), ("b", "a"): Fraction(5)}
    with pytest.raises(ValueError, match="triangle"):
        rebuild(base, points, broken)


def test_zero_distance_between_distinct_points_is_reported():
    assert _error(lambda: FiniteSpace("e", ("e", "a"), {("e", "a"): Fraction(0)})) == (
        "not a metric: identity violated at (e, a)"
    )
    # and a negative one, whose words would get negative norms
    assert _error(lambda: FiniteSpace("e", ("e", "a"), {("e", "a"): Fraction(-1), ("a", "e"): Fraction(-1)})) == (
        "not a metric: nonnegativity violated at (e, a)"
    )


def test_constructor_requires_all_pairs():
    message = _error(lambda: FiniteSpace("e", ("e", "a", "b"), {("e", "a"): Fraction(1)}))
    assert message == "missing distance for pair (e, b)"
    message = _error(lambda: FiniteSpace("e", ("e", "a", "b"), {("e", "a"): Fraction(1), ("b", "e"): Fraction(1)}))
    assert message == "missing distance for pair (a, b)"


def test_constructor_rejects_bad_point_names():
    one = {("e", "a"): Fraction(1)}
    assert _error(lambda: FiniteSpace("x", ("e", "a"), one)) == "base point 'x' is not among the points"
    assert _error(lambda: FiniteSpace("e", ("e", "a", "a"), one)) == "duplicate point names"
    message = _error(lambda: FiniteSpace("e", ("e", "a"), {**one, ("a", "z"): Fraction(1)}))
    assert message == "distance entry (a, z) names an unknown point"


def test_constructor_rejects_conflicting_entries():
    with pytest.raises(ValueError, match="conflicting"):
        FiniteSpace(
            "e",
            ("e", "a"),
            {("e", "a"): Fraction(1), ("a", "e"): Fraction(2)},
        )


def test_tilde_dist_both_negative_uses_point_distance():
    # d~(x^-1, y^-1) = d(x, y); the star table gives d(e1, e2) = 2
    assert tilde_dist(Letter("e1", -1), Letter("e2", -1), STAR3) == 2


def test_tilde_dist_mixed_signs_route_through_base():
    # d~(x, y^-1) = d(x, e) + d(e, y) = 1 + 1
    assert tilde_dist(Letter("e1"), Letter("e2", -1), STAR3) == 2


def test_tilde_dist_vanishes_on_equal_letters():
    for letter in (Letter("e1"), Letter("e2", -1), Letter("e")):
        assert tilde_dist(letter, letter, STAR3) == 0
    p = Letter(Fraction(2, 5))
    assert tilde_dist(p, p, INTERVAL) == 0


def test_tilde_dist_base_letter_is_sign_insensitive():
    assert tilde_dist(Letter("e"), Letter("e", -1), STAR3) == 0
    assert tilde_dist(Letter("e", -1), Letter("e1"), STAR3) == 1


def test_tilde_dist_opposite_signs_of_one_point():
    for space, point in ((STAR3, "e1"), (INTERVAL, Fraction(2, 5))):
        letter = Letter(point)
        expected = 2 * space.dist(point, space.base)
        assert tilde_dist(letter, letter.inverse(), space) == expected


def test_tilde_dist_restricted_to_positive_letters_is_d():
    for a in STAR3.points:
        for b in STAR3.points:
            assert tilde_dist(Letter(a), Letter(b), STAR3) == STAR3.dist(a, b)


def test_tilde_dist_rejects_foreign_points():
    with pytest.raises(ValueError, match="not in the space"):
        tilde_dist(Letter("x9"), Letter("e1"), STAR3)
    with pytest.raises(ValueError, match="not in the space"):
        tilde_dist(Letter(Fraction(7, 5)), Letter(Fraction(1, 5)), INTERVAL)
    with pytest.raises(ValueError, match=r"^no distance for pair \(e1, x9\)$"):
        STAR3.dist("e1", "x9")
    with pytest.raises(ValueError, match=r"^no distance for pair \(e1, \['e1'\]\)$"):
        STAR3.dist("e1", ["e1"])


def test_tilde_dist_matches_the_reference_on_finite_spaces():
    # every pair of signed letters, the base letter in both signs included
    for space in (star_space(2), STAR3, chain_space(4), TRIANGLE):
        _assert_same_as_reference(signed_alphabet(space.points), space)


def test_integer_costs_match_the_reference_on_finite_spaces():
    # every ordered pair of signed letters, the base letter in both signs
    # included: fix[t] is d~(x_t, e) and pair[t][j] is d~(x_t, x_j^-1)
    for space in (star_space(2), STAR3, chain_space(3), TRIANGLE):
        letters = signed_alphabet(space.points)
        fix, pair, scale = space.integer_costs(letters)
        for t, a in enumerate(letters):
            assert Fraction(fix[t], scale) == _reference_tilde_dist(a, Letter(space.base), space), a
            for j, b in enumerate(letters):
                assert Fraction(pair[t][j], scale) == _reference_tilde_dist(a, b.inverse(), space), (a, b)


def test_tilde_dist_matches_the_reference_on_interval_points():
    rng = random.Random(61)
    points = [Fraction(0), Fraction(1)]
    points += [Fraction(rng.randint(0, q), q) for q in range(1, 13) for _ in range(2)]
    _assert_same_as_reference(signed_alphabet(points), INTERVAL)


FOREIGN_POINTS = [
    (STAR3, "e1", "x9"),
    (STAR3, "e", Fraction(1, 2)),
    (TRIANGLE, "a", "e1"),
    (INTERVAL, Fraction(1, 5), Fraction(7, 5)),
    (INTERVAL, Fraction(1), Fraction(-1, 5)),
    (INTERVAL, Fraction(0), 1),
    (INTERVAL, Fraction(2, 5), "1/2"),
    (STAR3, "e2", ["e1"]),  # unhashable: not a point, not a TypeError
]


@pytest.mark.parametrize("space, inside, foreign", FOREIGN_POINTS)
def test_tilde_dist_rejects_a_foreign_point_in_either_place_as_before(space, inside, foreign):
    assert space.contains(inside) and not space.contains(foreign)
    for a, b in ((foreign, inside), (inside, foreign)):
        for sa in (1, -1):
            for sb in (1, -1):
                x, y = Letter(a, sa), Letter(b, sb)
                message = _error(lambda: tilde_dist(x, y, space))
                assert message == _error(lambda: _reference_tilde_dist(x, y, space))
                assert message == f"letter point {foreign!r} is not in the space"


@pytest.mark.parametrize("space, inside, foreign", FOREIGN_POINTS)
def test_integer_costs_reject_a_foreign_point_as_tilde_dist_does(space, inside, foreign):
    for letters in ([(foreign, 1), (inside, -1)], [(inside, 1), (inside, -1), (foreign, -1)]):
        word = Word(tuple(Letter(p, s) for p, s in letters))
        for call in (lambda: space.integer_costs(word.letters), lambda: norm_dp(word, space)):
            assert _error(call) == f"letter point {foreign!r} is not in the space"


def test_interval_membership_is_the_closed_unit_segment():
    for q in range(1, 8):
        for p in range(-q - 1, 2 * q + 2):
            x = Fraction(p, q)
            assert INTERVAL.contains(x) == (0 <= x <= 1)
            # integer_costs keeps its own copy of the rule
            try:
                INTERVAL.integer_costs([Letter(x)])
            except ValueError:
                assert not INTERVAL.contains(x)
            else:
                assert INTERVAL.contains(x)
    assert not INTERVAL.contains(1) and not INTERVAL.contains("0")


def test_signed_table_stays_out_of_equality_repr_and_json():
    star1 = star_space(1)
    assert repr(star1) == (
        "FiniteSpace(base='e', points=('e', 'e1'), table={('e', 'e'): Fraction(0, 1), "
        "('e1', 'e1'): Fraction(0, 1), ('e', 'e1'): Fraction(1, 1), ('e1', 'e'): Fraction(1, 1)})"
    )
    assert space_to_json(chain_space(2)) == {
        "kind": "finite",
        "base": "e",
        "points": ["e", "f1", "f2"],
        "dist": {"e,f1": "1", "e,f2": "2", "f1,f2": "1"},
    }
    copy = space_from_json(space_to_json(TRIANGLE))
    assert copy == TRIANGLE and hash(copy) == hash(TRIANGLE)
    assert copy.scaled == TRIANGLE.scaled and copy.scaled is not TRIANGLE.scaled
    assert copy.table_scale == TRIANGLE.table_scale == 3


def test_generators_are_built_once_with_the_space():
    # derived in the constructor, not per read, and no field
    assert star_space(3).generators is star_space(3).generators
    assert STAR3.generators == ("e1", "e2", "e3") and TRIANGLE.generators == ("a", "b")
    assert "generators" not in repr(STAR3) and space_from_json(space_to_json(STAR3)).generators == STAR3.generators


def test_tilde_dist_metric_axioms_exhaustive_on_finite_spaces():
    for space in (star_space(2), STAR3, chain_space(3)):
        letters = signed_alphabet(space.points)
        for a in letters:
            for b in letters:
                dab = tilde_dist(a, b, space)
                assert dab == tilde_dist(b, a, space)
                same = a.point == b.point and (a.sign == b.sign or a.point == space.base)
                assert (dab == 0) == same
                for c in letters:
                    assert dab <= tilde_dist(a, c, space) + tilde_dist(c, b, space)


def test_tilde_dist_triangle_random_on_interval():
    rng = random.Random(23)
    for _ in range(500):
        pts = [Fraction(rng.randint(0, 12), 12) for _ in range(3)]
        a, b, c = (Letter(p, rng.choice((1, -1))) for p in pts)
        assert tilde_dist(a, b, INTERVAL) <= tilde_dist(a, c, INTERVAL) + tilde_dist(
            c, b, INTERVAL
        )


def test_space_json_roundtrip():
    for space in (STAR3, chain_space(2)):
        assert space_from_json(space_to_json(space)) == space
    assert space_from_json({"kind": "interval"}) == INTERVAL


def test_equal_spaces_hash_equal():
    # a space read back from JSON is a new object with a new table
    for space in (STAR3, star_space(2), chain_space(4), INTERVAL):
        copy = space_from_json(space_to_json(space))
        assert copy == space and hash(copy) == hash(space)
    assert len({STAR3, space_from_json(space_to_json(STAR3)), star_space(2)}) == 2
    with pytest.raises(TypeError):
        STAR3.table[("e", "e1")] = Fraction(5)


def test_space_json_applies_symmetric_closure():
    data = {
        "kind": "finite",
        "base": "e",
        "points": ["e", "e1"],
        "dist": {"e1,e": "1"},
    }
    space = space_from_json(data)
    assert space.dist("e", "e1") == 1


def test_space_json_rejects_invalid_metric():
    data = {
        "kind": "finite",
        "base": "e",
        "points": ["e", "a", "b"],
        "dist": {"a,b": "5", "a,e": "1", "e,b": "1"},
    }
    with pytest.raises(ValueError, match="triangle"):
        space_from_json(data)


def test_load_space_from_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space_to_json(star_space(2))))
    assert load_space(str(path)) == star_space(2)


def test_builtin_spaces():
    assert builtin_space("interval") == INTERVAL
    assert builtin_space("lemma32-m3") == STAR3
    assert builtin_space("lemma32-m12") == star_space(12)
    assert builtin_space("lemma32-m07") == star_space(7)
    assert builtin_space("unknown") is None
    # the whole name, not a prefix, and ASCII digits only
    assert builtin_space("lemma32-m3\n") is None
    assert builtin_space("lemma32-m٣") is None


@pytest.mark.parametrize("build", [star_space, chain_space])
@pytest.mark.parametrize("m", [SPACE_RANK_MAX + 1, 999999999])
def test_built_in_space_rank_is_capped_before_building(build, m):
    with pytest.raises(ValueError, match=f"rank {m} is above the limit of {SPACE_RANK_MAX}"):
        build(m)


def test_chain_space_distances():
    chain = chain_space(3)
    assert chain.dist("f1", "f3") == 2
    assert chain.dist("e", "f3") == 3
