import math
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from operator import itemgetter

import pytest

from graev.maps import (
    BasisTranslation,
    PartialContraction,
    PointMap,
    check_contraction,
    check_cross_extension,
    extend_endomorphism,
    extend_partial_contraction,
    grid_map,
    map_from_json,
    map_to_json,
    partial_contraction_from_json,
    rescale_grid_word,
    scaling_norm_law,
    translate_word,
    triangular_translation,
)
from graev.norm import graev_norm
from graev.spaces import INTERVAL, FiniteSpace, chain_space, star_space
from graev.suite import random_partial_contraction, random_reduced_word
from graev.words import Letter, Word, concat, enumerate_reduced_words, parse_word, signed_alphabet

STAR3 = star_space(3)


def frac(text):
    return Fraction(text)


def _scaling(scale):
    return PointMap(INTERVAL, INTERVAL, "affine", scale=scale)


def test_identity_map_fixes_words():
    h = _scaling(Fraction(1))
    word = parse_word("2/5 4/5^-1", INTERVAL)
    assert extend_endomorphism(h, word) == word


def test_halving_map_scales_letterwise():
    h = _scaling(frac("1/2"))
    word = parse_word("2/5 4/5^-1", INTERVAL)
    assert extend_endomorphism(h, word) == parse_word("1/5 2/5^-1", INTERVAL)


def test_collapse_map_kills_every_word():
    table = {p: "e" for p in STAR3.points}
    h = PointMap(STAR3, STAR3, "table", table=table)
    assert extend_endomorphism(h, parse_word("e1 e2^-1 e3", STAR3)) == Word(())


def test_inverse_letters_map_to_inverse_images():
    table = {"e": "e", "e1": "e2", "e2": "e1", "e3": "e3"}
    h = PointMap(STAR3, STAR3, "table", table=table)
    assert extend_endomorphism(h, parse_word("e1^-1", STAR3)) == parse_word("e2^-1", STAR3)


def test_extension_is_a_homomorphism():
    rng = random.Random(31)
    table = {"e": "e", "e1": "e2", "e2": "e", "e3": "e1"}
    h = PointMap(STAR3, STAR3, "table", table=table)
    for _ in range(200):
        u = random_reduced_word(rng, STAR3, 6)
        v = random_reduced_word(rng, STAR3, 6)
        left = extend_endomorphism(h, concat(u, v, "e"))
        right = concat(extend_endomorphism(h, u), extend_endomorphism(h, v), "e")
        assert left == right


def test_map_must_fix_base_point():
    with pytest.raises(ValueError, match="base point"):
        PointMap(STAR3, STAR3, "table", table={"e": "e1", "e1": "e", "e2": "e2", "e3": "e3"})
    # slope -1/2, a contraction, yet it moves 0: transported certificates would fail
    with pytest.raises(ValueError, match="^map must send base point to base point$"):
        PointMap(INTERVAL, INTERVAL, "piecewise", breakpoints=((0, frac("1/2")), (1, 0)))


def test_map_needs_the_data_of_its_kind():
    # an explicit error, not an assert, so it survives python -O
    with pytest.raises(ValueError, match="kind 'affine' needs"):
        PointMap(INTERVAL, INTERVAL, "affine", table={Fraction(0): Fraction(0)})
    with pytest.raises(ValueError, match="unknown point-map kind"):
        PointMap(INTERVAL, INTERVAL, "spline")
    # data of another kind would be kept, unchecked, in a field equality reads
    with pytest.raises(ValueError, match="^a point map of kind 'affine' takes no other kind's data$"):
        PointMap(INTERVAL, INTERVAL, "affine", scale=Fraction(1, 2), breakpoints=[(0, 1)])
    with pytest.raises(ValueError, match=r"^affine self-map of \[0, 1\] needs 0 <= scale <= 1$"):
        _scaling(3)
    with pytest.raises(ValueError, match=r"^a point map of kind 'affine' is a self-map of \[0, 1\]$"):
        PointMap(STAR3, STAR3, "affine", scale=Fraction(1, 2))


HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "kind, data, message",
    [
        ("table", {"table": {"e1": "e1"}}, "table does not define the image of the base point"),
        ("table", {"table": {"e": "e", "x9": "e1"}}, "table key 'x9' is not in the domain"),
        ("table", {"table": {"e": "e", "e1": "x9"}}, "table value 'x9' is not in the codomain"),
        ("piecewise", {"breakpoints": [(0, 0), (HALF, 0)]}, "breakpoints must start at x = 0 and end at x = 1"),
        (
            "piecewise",
            {"breakpoints": [(0, 0), (HALF, 0), (HALF, 0), (1, 0)]},
            "breakpoint positions must increase strictly",
        ),
        ("piecewise", {"breakpoints": [(0, 0), (1, 2)]}, "breakpoint values must lie in [0, 1]"),
    ],
)
def test_point_map_names_what_is_wrong_with_its_data(kind, data, message):
    space = STAR3 if kind == "table" else INTERVAL
    with pytest.raises(ValueError) as error:
        PointMap(space, space, kind, **data)
    assert str(error.value) == message


def test_map_application_outside_domain():
    h = grid_map(2)
    with pytest.raises(ValueError, match="outside"):
        h.apply(Fraction(1, 3))
    with pytest.raises(ValueError, match=r"^point \['x'\] is outside the map domain$"):
        h.apply(["x"])
    with pytest.raises(ValueError, match=r"^point Fraction\(3, 2\) is outside \[0, 1\]$"):
        _scaling(frac("1/2")).apply(Fraction(3, 2))


def test_scaling_is_a_contraction():
    assert check_contraction(_scaling(frac("1/2")))
    assert check_contraction(_scaling(Fraction(1)))
    assert check_contraction(_scaling(Fraction(0)))  # the collapse to 0


def test_generator_swap_is_a_contraction():
    table = {"e": "e", "e1": "e2", "e2": "e1", "e3": "e3"}
    assert check_contraction(PointMap(STAR3, STAR3, "table", table=table))


def test_steep_piecewise_map_is_not_a_contraction():
    doubling = PointMap(
        INTERVAL, INTERVAL, "piecewise", breakpoints=[(0, 0), (frac("1/2"), 1), (1, 1)]
    )
    assert not check_contraction(doubling)


def test_grid_map_is_an_expansion_not_a_contraction():
    assert not check_contraction(grid_map(2))


def test_extend_singleton_anchor_set_gives_zero_map():
    partial = PartialContraction((Fraction(0),), (Fraction(0),))
    h = extend_partial_contraction(partial)
    for t in (Fraction(0), frac("1/3"), Fraction(1)):
        assert h.apply(t) == 0


def test_extend_interpolates_then_stays_constant():
    partial = PartialContraction((Fraction(0), frac("1/2")), (Fraction(0), frac("1/4")))
    h = extend_partial_contraction(partial)
    assert h.apply(frac("1/4")) == frac("1/8")
    assert h.apply(frac("1/2")) == frac("1/4")
    assert h.apply(frac("3/4")) == frac("1/4")
    assert h.apply(Fraction(1)) == frac("1/4")
    assert check_contraction(h)


def test_extend_identity_anchors_gives_identity():
    partial = PartialContraction((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
    h = extend_partial_contraction(partial)
    for t in (Fraction(0), frac("2/7"), Fraction(1)):
        assert h.apply(t) == t


def test_partial_contraction_invariant_is_enforced():
    with pytest.raises(ValueError, match="not a partial contraction"):
        PartialContraction((Fraction(0), frac("1/4")), (Fraction(0), frac("1/2")))
    with pytest.raises(ValueError, match=r"^not a partial contraction: \|h\(1/2\) - h\(1/4\)\| = 1/2 > 1/4$"):
        PartialContraction((0, frac("1/4"), frac("1/2")), (0, frac("1/4"), frac("3/4")))
    with pytest.raises(ValueError, match="value at 0"):
        PartialContraction((Fraction(0),), (frac("1/2"),))
    with pytest.raises(ValueError, match="contain 0"):
        PartialContraction((frac("1/2"),), (Fraction(0),))
    with pytest.raises(ValueError, match="^points and values differ in length$"):
        PartialContraction((Fraction(0), frac("1/2")), (Fraction(0),))
    with pytest.raises(ValueError, match="^anchor points must increase strictly$"):
        PartialContraction((Fraction(0), frac("1/2"), frac("1/2")), (Fraction(0),) * 3)
    for points, values in (((0, 2), (0, 1)), ((0, 1), (0, -1))):
        with pytest.raises(ValueError, match=r"^anchors and values must lie in \[0, 1\]$"):
            PartialContraction(tuple(map(Fraction, points)), tuple(map(Fraction, values)))


def _walk_2000(rng):
    """A partial contraction on the 2000 points i/2000, its values a walk of
    steps 0 or +-1/2000 reflected at 0."""
    values = [Fraction(0)]
    for _ in range(1999):
        values.append(abs(values[-1] + Fraction(rng.choice((-1, 0, 1)), 2000)))
    return PartialContraction(tuple(Fraction(i, 2000) for i in range(2000)), tuple(values))


def test_random_extensions_are_contractions_and_agree_on_anchors():
    rng = random.Random(17)
    partials = [random_partial_contraction(rng) for _ in range(300)]
    partials.append(_walk_2000(rng))
    for partial in partials:
        h = extend_partial_contraction(partial)
        assert check_contraction(h)
        for t, v in zip(partial.points, partial.values):
            assert h.apply(t) == v
        # inside each segment the image is the direct interpolation of its ends
        for (x0, y0), (x1, y1) in zip(h.breakpoints, h.breakpoints[1:]):
            t = x0 + (x1 - x0) / 3
            assert h.apply(t) == y0 + (y1 - y0) / 3


# The reference: the piecewise family's rules and interpolation written
# directly on Fractions, which its numerator and denominator arithmetic must
# agree with in every value, verdict and message.


def _fraction_image(breakpoints, p):
    idx = bisect_right(breakpoints, p, key=itemgetter(0)) - 1
    if idx == len(breakpoints) - 1:
        return breakpoints[-1][1]
    (x0, y0), (x1, y1) = breakpoints[idx], breakpoints[idx + 1]
    return y0 + (y1 - y0) * (p - x0) / (x1 - x0)


def _fraction_steep(a, va, b, vb):
    return abs(vb - va) > b - a


def _fraction_is_contraction(breakpoints):
    return not any(_fraction_steep(x0, y0, x1, y1) for (x0, y0), (x1, y1) in zip(breakpoints, breakpoints[1:]))


def _fraction_partial_error(points, values):
    """The message of the first rule a PartialContraction's data breaks, or None."""
    if len(points) != len(values):
        return "points and values differ in length"
    if not points or points[0] != 0:
        return "the anchor set must contain 0 as its first point"
    if values[0] != 0:
        return "the value at 0 must be 0"
    for (a, va), (b, vb) in zip(zip(points, values), zip(points[1:], values[1:])):
        if b <= a:
            return "anchor points must increase strictly"
        if _fraction_steep(a, va, b, vb):
            return f"not a partial contraction: |h({b}) - h({a})| = {abs(vb - va)} > {b - a}"
    for t, v in zip(points, values):
        if not 0 <= t <= 1 or not 0 <= v <= 1:
            return "anchors and values must lie in [0, 1]"
    return None


def _fraction_piecewise_error(breakpoints):
    """The message of the first rule a piecewise PointMap's breakpoints break, or None."""
    if not breakpoints or breakpoints[0][0] != 0 or breakpoints[-1][0] != 1:
        return "breakpoints must start at x = 0 and end at x = 1"
    for (x0, _), (x1, _) in zip(breakpoints, breakpoints[1:]):
        if x1 <= x0:
            return "breakpoint positions must increase strictly"
    for _, y in breakpoints:
        if not 0 <= y <= 1:
            return "breakpoint values must lie in [0, 1]"
    if breakpoints[0][1] != 0:
        return "map must send base point to base point"
    return None


def _error(build, *args):
    try:
        build(*args)
    except ValueError as error:
        return str(error)
    return None


def _huge_denominators(rng, count, digits=300):
    """``count`` pairwise coprime denominators of ``digits`` digits."""
    dens = []
    while len(dens) < count:
        d = rng.randrange(10 ** (digits - 1), 10**digits)
        if all(math.gcd(d, e) == 1 for e in dens):
            dens.append(d)
    return dens


def _huge_partial(rng, count):
    """A partial contraction whose anchors and values have ~300-digit pairwise
    coprime denominators, each value drawn inside its neighbour's slope band."""
    dens = _huge_denominators(rng, 2 * count)
    points = sorted({Fraction(0)} | {Fraction(rng.randrange(1, d), d) for d in dens[:count - 1]})
    values = [Fraction(0)]
    for (a, b), d in zip(zip(points, points[1:]), dens[count:]):
        low, high = max(Fraction(0), values[-1] - (b - a)), min(Fraction(1), values[-1] + (b - a))
        values.append(Fraction(rng.randint(math.ceil(low * d), math.floor(high * d)), d))
    return PartialContraction(tuple(points), tuple(values))


def _inside(rng, a, b):
    """Points strictly between a and b: a third of the way, and a random one."""
    den = rng.randint(2, 10**6)
    return a + (b - a) / 3, a + (b - a) * Fraction(rng.randint(1, den - 1), den)


def test_piecewise_maps_agree_with_the_fraction_formulas():
    rng = random.Random(2531)
    partials = [random_partial_contraction(rng) for _ in range(300)]
    partials += [_walk_2000(rng)] + [_huge_partial(rng, count) for count in (2, 3, 7)]
    tails = 0
    for partial in partials:
        h = extend_partial_contraction(partial)
        breakpoints = h.breakpoints
        tails += partial.points[-1] != 1
        assert check_contraction(h) and _fraction_is_contraction(breakpoints)
        probes = [Fraction(0), Fraction(1), *partial.points]
        for (x0, _), (x1, _) in zip(breakpoints, breakpoints[1:]):
            probes += _inside(rng, x0, x1)  # on the constant tail too, after a last anchor below 1
        for t in probes:
            assert h.apply(t) == _fraction_image(breakpoints, t)
        for t, v in zip(partial.points, partial.values):
            assert h.apply(t) == v
    assert tails > 100  # the constant tails were probed


@pytest.mark.parametrize("digits", [2, 300])
def test_slope_checks_agree_at_and_one_step_above_one(digits):
    rng = random.Random(digits)
    partial_errors, contractions = Counter(), Counter()
    for _ in range(40):
        a_den, b_den, v_den, step_den = _huge_denominators(rng, 4, digits)
        a = Fraction(rng.randrange(1, a_den), a_den) / 2  # in (0, 1/2)
        b = a + (1 - a) * Fraction(rng.randrange(1, b_den), b_den)  # in (a, 1)
        va = a * Fraction(rng.randrange(0, v_den), v_den)  # |va - 0| <= a
        step = Fraction(1, step_den)
        for vb in (va + (b - a), va + (b - a) + step, va - (b - a), va - (b - a) - step):
            points, values = (Fraction(0), a, b), (Fraction(0), va, vb)
            want = _fraction_partial_error(points, values)
            assert _error(PartialContraction, points, values) == want
            partial_errors[want and want.split(":")[0]] += 1
            breakpoints = tuple(zip(points, values)) + ((Fraction(1), vb),)
            if _fraction_piecewise_error(breakpoints) is None:
                h = PointMap(INTERVAL, INTERVAL, "piecewise", breakpoints=breakpoints)
                assert check_contraction(h) == _fraction_is_contraction(breakpoints)
                contractions[check_contraction(h)] += 1
    # both sides of the boundary were met, in both checks
    assert partial_errors[None] >= 40 and partial_errors["not a partial contraction"] >= 40
    assert contractions[True] >= 40 and contractions[False] > 0
    # and by hand: a slope of exactly -1 passes, one a 10^-300 step steeper fails
    assert check_contraction(PointMap(INTERVAL, INTERVAL, "piecewise", breakpoints=[(0, 0), (HALF, HALF), (1, 0)]))
    tiny = Fraction(1, 10**300)
    for steep in ([(0, 0), (HALF, HALF), (3 * Q, Q - tiny), (1, 0)], [(0, 0), (HALF, HALF + tiny), (1, HALF)]):
        assert not check_contraction(PointMap(INTERVAL, INTERVAL, "piecewise", breakpoints=steep))


def test_constructors_agree_with_the_fraction_rules_on_seeded_data():
    # small denominators, so ties (|dy| = dx, repeated x, values at 0 and 1) come often
    rng = random.Random(77)
    seen = set()
    for _ in range(3000):
        count = rng.randint(1, 5)
        xs = sorted(Fraction(rng.randint(0, 4), 4) for _ in range(count))
        if rng.random() < 0.2:
            rng.shuffle(xs)
        if rng.random() < 0.7:
            xs[0] = Fraction(0)
        ys = [Fraction(rng.randint(-1, 5), 4) for _ in range(count)]
        if rng.random() < 0.7:
            ys[0] = Fraction(0)
        want = _fraction_partial_error(tuple(xs), tuple(ys))
        assert _error(PartialContraction, tuple(xs), tuple(ys)) == want
        seen.add(want and want.split(":")[0])
        if rng.random() < 0.7:
            xs[-1] = Fraction(1)
        breakpoints = tuple(zip(xs, ys))
        want = _fraction_piecewise_error(breakpoints)
        assert _error(PointMap, INTERVAL, INTERVAL, "piecewise", None, None, breakpoints) == want
        if want is None:
            h = PointMap(INTERVAL, INTERVAL, "piecewise", breakpoints=breakpoints)
            assert check_contraction(h) == _fraction_is_contraction(breakpoints)
        seen.add(want)
    # every rule of both constructors but the length one failed first somewhere
    assert seen == {
        None,
        "the anchor set must contain 0 as its first point",
        "the value at 0 must be 0",
        "anchor points must increase strictly",
        "not a partial contraction",
        "anchors and values must lie in [0, 1]",
        "breakpoints must start at x = 0 and end at x = 1",
        "breakpoint positions must increase strictly",
        "breakpoint values must lie in [0, 1]",
        "map must send base point to base point",
    }


Q = Fraction(1, 4)


@pytest.mark.parametrize(
    "points, values, message",
    [
        # one neighbour pair not increasing and too steep
        ((0, HALF, Q), (0, 0, 1), "anchor points must increase strictly"),
        # too steep and outside [0, 1]
        ((0, HALF), (0, 2), "not a partial contraction: |h(1/2) - h(0)| = 2 > 1/2"),
        ((0, Q, HALF), (0, Q, -Q), "not a partial contraction: |h(1/2) - h(1/4)| = 1/2 > 1/4"),
        # a wrong start and a repeated x
        ((Q, Q, HALF), (0, 0, 0), "the anchor set must contain 0 as its first point"),
        # the first failing neighbour pair wins: too steep before a repeat
        ((0, Q, Q), (0, HALF, HALF), "not a partial contraction: |h(1/4) - h(0)| = 1/2 > 1/4"),
        # and a repeat before a steep pair
        ((0, Q, Q, HALF), (0, 0, 0, 1), "anchor points must increase strictly"),
    ],
)
def test_partial_contraction_names_the_first_rule_its_data_breaks(points, values, message):
    assert _error(PartialContraction, tuple(map(Fraction, points)), tuple(map(Fraction, values))) == message
    assert _fraction_partial_error(tuple(map(Fraction, points)), tuple(map(Fraction, values))) == message


@pytest.mark.parametrize(
    "breakpoints, message",
    [
        # not increasing and too steep: the map's slopes are check_contraction's, never the constructor's
        ([(0, 0), (HALF, 0), (Q, 1), (1, 1)], "breakpoint positions must increase strictly"),
        # too steep and outside [0, 1]
        ([(0, 0), (HALF, 2), (1, 1)], "breakpoint values must lie in [0, 1]"),
        # a wrong start and a repeated x
        ([(Q, 0), (Q, 0), (1, 0)], "breakpoints must start at x = 0 and end at x = 1"),
        # a repeated x and a value outside [0, 1]
        ([(0, 0), (HALF, 2), (HALF, 0), (1, 0)], "breakpoint positions must increase strictly"),
        # a value outside [0, 1] and a moved base point
        ([(0, HALF), (HALF, 2), (1, 0)], "breakpoint values must lie in [0, 1]"),
    ],
)
def test_piecewise_map_names_the_first_rule_its_breakpoints_break(breakpoints, message):
    assert _error(PointMap, INTERVAL, INTERVAL, "piecewise", None, None, breakpoints) == message
    assert _fraction_piecewise_error(tuple((Fraction(x), Fraction(y)) for x, y in breakpoints)) == message


def test_every_map_refuses_points_outside_its_domain():
    grid = grid_map(2)
    # True and int 1 hash and compare like the key Fraction(1), yet are no points of [0, 1]
    for point in (True, 1):
        with pytest.raises(ValueError, match=rf"^point {point} is outside the map domain$"):
            grid.apply(point)
        for h in (_scaling(HALF), extend_partial_contraction(PartialContraction((0, HALF), (0, Q)))):
            with pytest.raises(ValueError, match=rf"^point {point} is outside \[0, 1\]$"):
                h.apply(point)
    assert grid.apply(Fraction(1)) == "f2" and grid.apply(Fraction(0)) == "e"
    swap = PointMap(STAR3, STAR3, "table", table={"e": "e", "e1": "e2"})
    with pytest.raises(ValueError, match=r"^point x9 is outside the map domain$"):
        swap.apply("x9")
    with pytest.raises(ValueError, match=r"^point e2 is outside the map domain$"):
        swap.apply("e2")  # in the domain, but the table gives no image
    assert swap.apply("e1") == "e2"


def test_scaling_norm_law_single_letter():
    assert scaling_norm_law(frac("1/2"), parse_word("2/5", INTERVAL)) == (
        frac("1/5"),
        frac("1/5"),
    )


def test_scaling_norm_law_identity_factor():
    word = parse_word("2/5 4/5^-1 1/3", INTERVAL)
    value = graev_norm(word, INTERVAL)
    assert scaling_norm_law(Fraction(1), word) == (value, value)


def test_scaling_norm_law_third():
    word = parse_word("2/5 4/5^-1", INTERVAL)
    assert scaling_norm_law(frac("1/3"), word) == (frac("2/15"), frac("2/15"))


def test_scaling_norm_law_rejects_bad_factors():
    word = parse_word("2/5", INTERVAL)
    with pytest.raises(ValueError):
        scaling_norm_law(Fraction(0), word)
    with pytest.raises(ValueError):
        scaling_norm_law(Fraction(3, 2), word)


def test_contraction_never_increases_the_norm():
    rng = random.Random(5)
    table_maps = [
        {"e": "e", "e1": "e", "e2": "e1", "e3": "e2"},
        {"e": "e", "e1": "e1", "e2": "e1", "e3": "e3"},
    ]
    for table in table_maps:
        h = PointMap(STAR3, STAR3, "table", table=table)
        assert check_contraction(h)
        for _ in range(150):
            word = random_reduced_word(rng, STAR3, 8)
            assert graev_norm(extend_endomorphism(h, word), STAR3) <= graev_norm(word, STAR3)


def test_rescale_sends_grid_points_to_chain_generators():
    assert rescale_grid_word(2, parse_word("1/2", INTERVAL)) == parse_word("f1", chain_space(2))


def test_rescale_sends_base_to_identity():
    assert rescale_grid_word(2, parse_word("0", INTERVAL)) == Word(())


def test_rescale_acts_letterwise():
    got = rescale_grid_word(3, parse_word("1/3 2/3^-1", INTERVAL))
    assert got == parse_word("f1 f2^-1", chain_space(3))


def test_rescale_rejects_off_grid_points():
    with pytest.raises(ValueError, match="grid"):
        rescale_grid_word(2, parse_word("1/3", INTERVAL))


def test_rescale_multiplies_the_norm_exhaustively():
    for m in (2, 3):
        chain = chain_space(m)
        alphabet = signed_alphabet([Fraction(j, m) for j in range(1, m + 1)])
        for word in enumerate_reduced_words(alphabet, 3):
            image = rescale_grid_word(m, word)
            assert graev_norm(image, chain) == m * graev_norm(word, INTERVAL)


def test_cross_extension_holds_for_the_triangular_bases():
    for m in (2, 3):
        chain = chain_space(m)
        translation = triangular_translation(m)
        rng = random.Random(m)
        samples = [random_reduced_word(rng, chain, 4) for _ in range(12)]
        assert check_cross_extension(translation, samples)


def test_cross_extension_translates_each_sample_once(monkeypatch):
    translation = triangular_translation(3)
    samples = [random_reduced_word(random.Random(3), translation.space_a, 4) for _ in range(9)]
    calls = []

    def counted(*args):
        calls.append(args[0])
        return translate_word(*args)

    monkeypatch.setattr("graev.maps.translate_word", counted)
    assert check_cross_extension(translation, samples)
    # each sample once, and the image of every point of both spaces
    assert len(calls) == len(samples) + len(translation.space_a.points) + len(translation.space_b.points)
    assert calls[-len(samples):] == samples


def test_grid_map_is_built_once_per_rank():
    assert grid_map(3) is grid_map(3) and grid_map(2) is not grid_map(3)


def test_cross_extension_trivial_on_identical_spaces():
    space = star_space(2)
    translation = BasisTranslation(
        space,
        space,
        {g: Word((Letter(g),)) for g in ("e1", "e2")},
        {g: Word((Letter(g),)) for g in ("e1", "e2")},
    )
    samples = [parse_word(t, space) for t in ("", "e1", "e1 e2^-1")]
    assert check_cross_extension(translation, samples)


@pytest.mark.parametrize("missing", ["points", "values"])
def test_partial_contraction_names_a_missing_field(missing):
    data = {"points": ["0", "1"], "values": ["0", "1/2"]}
    del data[missing]
    with pytest.raises(ValueError) as error:
        partial_contraction_from_json(data)
    assert str(error.value) == f"partial contraction file is missing field {missing!r}"


def test_cross_extension_fails_on_altered_metric():
    # lowering d(e1, e2) to 3/2, still a metric, breaks the restriction hypothesis
    altered = FiniteSpace(
        "e", ("e", "e1", "e2"), {("e", "e1"): Fraction(1), ("e", "e2"): Fraction(1), ("e1", "e2"): Fraction(3, 2)}
    )
    base = triangular_translation(2)
    translation = BasisTranslation(chain_space(2), altered, base.a_to_b, base.b_to_a)
    assert not check_cross_extension(translation, [])


def test_translation_validation_rejects_non_bijections():
    chain = chain_space(2)
    star = star_space(2)
    with pytest.raises(ValueError, match="^translation is not a bijective basis correspondence$"):
        BasisTranslation(
            chain,
            star,
            {"f1": parse_word("e1", star), "f2": parse_word("e1", star)},
            {"e1": parse_word("f1", chain), "e2": parse_word("f1^-1 f2", chain)},
        )
    # a substitution for a generator the space does not have
    good = triangular_translation(2)
    with pytest.raises(ValueError, match="^translation is not a bijective basis correspondence$"):
        BasisTranslation(chain, star, {**good.a_to_b, "f3": parse_word("e1", star)}, good.b_to_a)
    with pytest.raises(ValueError, match="^cross-basis checks need two finite spaces$"):
        BasisTranslation(INTERVAL, INTERVAL, {}, {})


def test_translate_word_handles_inverses():
    translation = triangular_translation(2)
    word = parse_word("f2^-1 f1", chain_space(2))
    got = translate_word(word, translation.a_to_b, "e", "e")
    assert got == parse_word("e2^-1", star_space(2))


def substitute(word, mapping):
    return translate_word(word, mapping, "e", "e")


def test_substitute_single_f_generator():
    tr = triangular_translation(2)
    assert substitute(parse_word("f2", tr.space_a), tr.a_to_b) == parse_word("e1 e2", STAR3)


def test_substitute_inverse_letter():
    tr = triangular_translation(1)
    assert substitute(parse_word("f1^-1", tr.space_a), tr.a_to_b) == parse_word("e1^-1", STAR3)


def test_substitute_then_reduce():
    tr = triangular_translation(2)
    got = substitute(parse_word("f2 f1^-1", tr.space_a), tr.a_to_b)
    assert got == parse_word("e1 e2 e1^-1", STAR3)


def test_substitute_rejects_wrong_alphabet():
    tr = triangular_translation(2)
    with pytest.raises(ValueError, match="no translation for generator"):
        substitute(parse_word("e1", STAR3), tr.a_to_b)
    with pytest.raises(ValueError, match="no translation for generator"):
        substitute(parse_word("f3", chain_space(3)), tr.a_to_b)


def test_substitute_roundtrip_exhaustive_rank2():
    tr = triangular_translation(2)
    alphabet = signed_alphabet(("f1", "f2"))
    for word in enumerate_reduced_words(alphabet, 6):
        assert substitute(substitute(word, tr.a_to_b), tr.b_to_a) == word


def test_substitute_roundtrip_on_e_words():
    tr = triangular_translation(3)
    alphabet = signed_alphabet(("e1", "e2", "e3"))
    for word in enumerate_reduced_words(alphabet, 4):
        assert substitute(substitute(word, tr.b_to_a), tr.a_to_b) == word


def test_map_json_roundtrip():
    h = _scaling(frac("1/2"))
    assert map_from_json(map_to_json(h), INTERVAL) == h
    table = PointMap(STAR3, STAR3, "table", table={"e": "e", "e1": "e2", "e2": "e1", "e3": "e"})
    assert map_from_json(map_to_json(table), STAR3) == table
    partial = partial_contraction_from_json({"points": ["0", "1/2"], "values": ["0", "1/4"]})
    extended = extend_partial_contraction(partial)
    assert map_from_json(map_to_json(extended), INTERVAL) == extended


def test_equal_point_maps_hash_equal():
    table = {"e": "e", "e1": "e2", "e2": "e1", "e3": "e"}
    h = PointMap(STAR3, STAR3, "table", table=table)
    copy = map_from_json(map_to_json(h), STAR3)
    assert copy == h and hash(copy) == hash(h)
    halving = _scaling(frac("1/2"))
    assert len({h, copy, halving, _scaling(frac("2/4")), grid_map(3), grid_map(3)}) == 3
    table["e1"] = "e3"  # the map keeps its own copy
    assert h.apply("e1") == "e2"


def test_table_json_fills_base_entry():
    h = map_from_json({"map": {"e1": "e2", "e2": "e1", "e3": "e3"}}, STAR3)
    assert h.apply("e") == "e"
