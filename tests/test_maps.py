import random

import pytest

from fractions import Fraction

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


def test_random_extensions_are_contractions_and_agree_on_anchors():
    rng = random.Random(17)
    partials = [random_partial_contraction(rng) for _ in range(300)]
    # and one of 2000 anchors, a walk of steps 0 or +-1/2000 reflected at 0
    values = [Fraction(0)]
    for _ in range(1999):
        values.append(abs(values[-1] + Fraction(rng.choice((-1, 0, 1)), 2000)))
    partials.append(PartialContraction(tuple(Fraction(i, 2000) for i in range(2000)), tuple(values)))
    for partial in partials:
        h = extend_partial_contraction(partial)
        assert check_contraction(h)
        for t, v in zip(partial.points, partial.values):
            assert h.apply(t) == v
        # inside each segment the image is the direct interpolation of its ends
        for (x0, y0), (x1, y1) in zip(h.breakpoints, h.breakpoints[1:]):
            t = x0 + (x1 - x0) / 3
            assert h.apply(t) == y0 + (y1 - y0) / 3


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
