import random
import time

import pytest

from fractions import Fraction

import graev.certificates as certificates
from graev.certificates import (
    ConjugateDecomposition,
    PowerCertificate,
    conjugate_decomposition_failure,
    decompose_conjugates,
    decomposition_from_json,
    decomposition_to_json,
    exponent_obstruction,
    exponent_sum,
    power_certificate_failure,
    power_certificate_from_json,
    power_certificate_to_json,
    search_power_certificate,
    transport_certificate,
    word_power,
)
from graev.maps import PointMap
from graev.norm import graev_norm, norm_dp
from graev.spaces import INTERVAL, FiniteSpace, chain_space, star_space
from graev.suite import (
    random_conjugate_product,
    random_power_certificate,
    random_reduced_word,
    random_contraction,
)
from graev.words import (
    Letter,
    Word,
    concat,
    enumerate_reduced_words,
    free_reduce,
    parse_word,
    signed_alphabet,
)

STAR2 = star_space(2)
STAR3 = star_space(3)


def test_in_ball_is_strict():
    word = parse_word("2/5", INTERVAL)
    assert graev_norm(word, INTERVAL) < Fraction(1, 2)
    assert not graev_norm(word, INTERVAL) < Fraction(2, 5)


def test_identity_is_in_every_ball():
    assert graev_norm(Word(()), INTERVAL) < Fraction(1, 10)


def test_decompose_conjugated_generator():
    decomposition = decompose_conjugates(parse_word("e1 e2 e1^-1", STAR3), 3)
    assert decomposition is not None
    assert decomposition.factors == (
        (parse_word("e1", STAR3), Letter("e2")),
    )
    assert conjugate_decomposition_failure(decomposition) is None


def test_decompose_two_generators_without_zero_pairs():
    decomposition = decompose_conjugates(parse_word("e1 e2", STAR3), 3)
    assert decomposition is not None
    assert decomposition.factors == (
        (Word(()), Letter("e1")),
        (Word(()), Letter("e2")),
    )


def test_decompose_refuses_words_outside_the_ball():
    assert decompose_conjugates(parse_word("e1 e2 e3", STAR3), 3) is None


def test_decompose_raises_when_the_norm_miscounts(monkeypatch):
    # an explicit error, not an assert, so it survives python -O
    real = certificates.norm_dp
    monkeypatch.setattr(certificates, "norm_dp", lambda w, space: (Fraction(1), real(w, space)[1]))
    with pytest.raises(RuntimeError, match="unmatched letters"):
        decompose_conjugates(parse_word("e1 e2", STAR3), 3)


def test_power_certificate_bounds_the_letters_of_its_powers(monkeypatch):
    monkeypatch.setattr(certificates, "POWER_LETTERS_MAX", 12)
    base = parse_word("2/5 2/5", INTERVAL)
    assert PowerCertificate(3, Fraction(1), Word(()), (base, base)).bases == (base, base)
    with pytest.raises(ValueError, match="the powers have 15 letters, above the limit of 12"):
        PowerCertificate(3, Fraction(1), Word(()), (base, parse_word("2/5 2/5 2/5", INTERVAL)))


def test_decompose_empty_word():
    decomposition = decompose_conjugates(Word(()), 1)
    assert decomposition is not None
    assert decomposition.factors == ()
    assert conjugate_decomposition_failure(decomposition) is None


def test_decompose_rejects_foreign_alphabet():
    with pytest.raises(ValueError, match="star space"):
        decompose_conjugates(parse_word("e3", STAR3), 2)


def _table_rule_decomposition(w, m):
    """decompose_conjugates with its zero-cost pairs read from the cost
    table: the pairs of the optimal matching whose d~(x_i, x_j^-1) is 0."""
    space = star_space(m)
    w = free_reduce(w, space.base)
    value, matching = norm_dp(w, space)
    if value >= m:
        return None
    _, costs, _ = space.integer_costs(w.letters)
    matched = {pos for i, j in matching.pairs() if costs[i - 1][j - 1] == 0 for pos in (i, j)}
    factors = tuple(
        (free_reduce(Word(tuple(w[t - 1] for t in range(1, pos) if t in matched)), space.base), w[pos - 1])
        for pos in range(1, len(w) + 1)
        if pos not in matched
    )
    return ConjugateDecomposition(m=m, target=w, factors=factors)


def test_decompose_reads_the_zero_pairs_the_cost_table_gives():
    rng = random.Random(20240831)
    for _ in range(1500):
        m = rng.randint(2, 5)
        word = random_reduced_word(rng, star_space(m), 12)
        assert decompose_conjugates(word, m) == _table_rule_decomposition(word, m), word


def test_decompose_builds_one_cost_table(monkeypatch):
    calls = []
    real = FiniteSpace.integer_costs
    monkeypatch.setattr(FiniteSpace, "integer_costs", lambda self, letters: calls.append(1) or real(self, letters))
    for text in ("e1 e2 e1^-1", "e1 e2", "e1 e2 e3", "e2 e1 e3^-1 e1^-1 e2^-1"):
        calls.clear()
        decompose_conjugates(parse_word(text, STAR3), 3)
        assert len(calls) == 1, text


def test_verify_rejects_wrong_product():
    bad = ConjugateDecomposition(
        m=3,
        target=parse_word("e2", STAR3),
        factors=((parse_word("e1", STAR3), Letter("e2")),),
    )
    failure = conjugate_decomposition_failure(bad)
    assert failure is not None and "product mismatch" in failure


def test_verify_rejects_too_many_factors():
    bad = ConjugateDecomposition(
        m=2,
        target=parse_word("e1 e2", STAR2),
        factors=((Word(()), Letter("e1")), (Word(()), Letter("e2"))),
    )
    assert conjugate_decomposition_failure(bad) == "factor count 2 exceeds m - 1 = 1"
    none = ConjugateDecomposition(m=0, target=Word(()), factors=())
    assert conjugate_decomposition_failure(none) == "m must be at least 1, got 0"


def test_verify_names_a_letter_outside_the_alphabet():
    # over the star space of rank 3, e4 is no letter; each place is checked
    e1, e4 = Letter("e1"), Letter("e4", -1)
    cases = [
        (Word((e4,)), ((Word(), e1),), "target letter e4^-1 is outside the alphabet"),
        (Word((e1,)), ((Word((e1, e4)), e1),), "conjugator letter e4^-1 is outside the alphabet"),
        (Word((e1,)), ((Word(), e1), (Word((e1,)), e4)), "factor letter e4^-1 is outside the alphabet"),
    ]
    for target, factors, message in cases:
        assert conjugate_decomposition_failure(ConjugateDecomposition(3, target, factors)) == message


def test_verify_accepts_empty_decomposition():
    empty = ConjugateDecomposition(m=1, target=Word(()), factors=())
    assert conjugate_decomposition_failure(empty) is None


def test_verify_accepts_identity_factor_letters():
    decomposition = ConjugateDecomposition(
        m=3,
        target=parse_word("e1 e2 e1^-1", STAR3),
        factors=(
            (parse_word("e1", STAR3), Letter("e2")),
            (parse_word("e2", STAR3), Letter("e")),
        ),
    )
    assert conjugate_decomposition_failure(decomposition) is None


def test_ball_decomposition_equivalence_exhaustive_small():
    for m in (2, 3):
        space = star_space(m)
        for word in enumerate_reduced_words(signed_alphabet(space.generators), 4):
            value = graev_norm(word, space)
            decomposition = decompose_conjugates(word, m)
            assert (value < m) == (decomposition is not None)
            if decomposition is not None:
                assert len(decomposition.factors) == value
                assert conjugate_decomposition_failure(decomposition) is None


def test_conjugate_products_land_in_the_ball():
    rng = random.Random(12)
    for m in (2, 3, 4):
        space = star_space(m)
        for _ in range(100):
            word = random_conjugate_product(rng, m)
            assert graev_norm(word, space) <= m - 1


def test_star_norms_are_integers():
    rng = random.Random(44)
    for _ in range(200):
        word = random_reduced_word(rng, STAR3, 8)
        assert graev_norm(word, STAR3).denominator == 1


def test_power_certificate_verifies():
    cert = PowerCertificate(
        n=3,
        c=Fraction(1, 2),
        target=parse_word("2/5 2/5 2/5", INTERVAL),
        bases=(parse_word("2/5", INTERVAL),),
    )
    assert power_certificate_failure(cert, INTERVAL) is None


def test_power_certificate_fails_on_tight_radius():
    cert = PowerCertificate(
        n=3,
        c=Fraction(1, 3),
        target=parse_word("2/5 2/5 2/5", INTERVAL),
        bases=(parse_word("2/5", INTERVAL),),
    )
    failure = power_certificate_failure(cert, INTERVAL)
    assert failure == "N(base 1) = 2/5 >= c = 1/3"


def test_power_certificate_fails_on_wrong_product():
    cert = PowerCertificate(
        n=3,
        c=Fraction(1, 2),
        target=parse_word("2/5", INTERVAL),
        bases=(parse_word("2/5", INTERVAL),),
    )
    failure = power_certificate_failure(cert, INTERVAL)
    assert failure is not None and "product mismatch" in failure


def test_empty_certificate_for_identity():
    cert = PowerCertificate(n=3, c=Fraction(1), target=Word(()), bases=())
    assert power_certificate_failure(cert, INTERVAL) is None


def test_certificate_exponent_validation():
    with pytest.raises(ValueError, match="odd"):
        PowerCertificate(n=2, c=Fraction(1), target=Word(()), bases=())
    with pytest.raises(ValueError, match="odd"):
        PowerCertificate(n=1, c=Fraction(1), target=Word(()), bases=())
    with pytest.raises(ValueError, match="radius"):
        PowerCertificate(n=3, c=Fraction(0), target=Word(()), bases=())


def test_transport_along_halving_map():
    cert = PowerCertificate(
        n=3,
        c=Fraction(1, 2),
        target=parse_word("2/5 2/5 2/5", INTERVAL),
        bases=(parse_word("2/5", INTERVAL),),
    )
    moved = transport_certificate(cert, PointMap(INTERVAL, INTERVAL, "affine", scale=Fraction(1, 2)))
    assert moved.bases == (parse_word("1/5", INTERVAL),)
    assert moved.target == parse_word("1/5 1/5 1/5", INTERVAL)
    assert power_certificate_failure(moved, INTERVAL) is None


def test_transport_along_identity_is_trivial():
    cert = PowerCertificate(
        n=3,
        c=Fraction(1, 2),
        target=parse_word("2/5 2/5 2/5", INTERVAL),
        bases=(parse_word("2/5", INTERVAL),),
    )
    moved = transport_certificate(cert, PointMap(INTERVAL, INTERVAL, "affine", scale=Fraction(1)))
    assert moved == cert


def test_transport_along_collapse_gives_trivial_certificate():
    space = STAR2
    cert = PowerCertificate(
        n=3,
        c=Fraction(3, 2),
        target=word_power(parse_word("e1", space), 3, "e"),
        bases=(parse_word("e1", space),),
    )
    collapse = PointMap(space, space, "table", table={p: "e" for p in space.points})
    moved = transport_certificate(cert, collapse)
    assert moved.bases == (Word(()),)
    assert moved.target == Word(())
    assert power_certificate_failure(moved, space) is None


def test_transport_requires_a_contraction():
    cert = PowerCertificate(n=3, c=Fraction(1), target=Word(()), bases=())
    doubling = PointMap(
        INTERVAL, INTERVAL, "piecewise", breakpoints=[(0, 0), (Fraction(1, 2), 1), (1, 1)]
    )
    with pytest.raises(ValueError, match="contraction"):
        transport_certificate(cert, doubling)


def test_transport_requires_a_valid_certificate():
    bad = PowerCertificate(
        n=3, c=Fraction(1, 3), target=parse_word("2/5 2/5 2/5", INTERVAL), bases=(parse_word("2/5", INTERVAL),)
    )
    with pytest.raises(ValueError, match="does not verify"):
        transport_certificate(bad, PointMap(INTERVAL, INTERVAL, "affine", scale=Fraction(1, 2)))


def test_transported_random_certificates_verify():
    rng = random.Random(3)
    for _ in range(150):
        cert = random_power_certificate(rng, STAR3, 3)
        h = random_contraction(rng, STAR3)
        assert power_certificate_failure(transport_certificate(cert, h), STAR3) is None


def test_search_finds_single_letter_witness():
    cert = search_power_certificate(
        parse_word("2/5 2/5 2/5", INTERVAL),
        Fraction(1, 2),
        3,
        max_factors=1,
        max_base_length=1,
        space=INTERVAL,
    )
    assert cert is not None
    assert cert.bases == (parse_word("2/5", INTERVAL),)
    assert power_certificate_failure(cert, INTERVAL) is None


def test_search_reports_unknown_for_single_generator():
    # the exponent sum of e1 is 1, not divisible by 3: no witness exists
    assert (
        search_power_certificate(
            parse_word("e1", STAR2), Fraction(2), 3, max_factors=2, max_base_length=1, space=STAR2
        )
        is None
    )
    # a letter outside the space's points is in no product of candidate powers
    foreign = Word((Letter("e3"),) * 3)
    assert search_power_certificate(foreign, Fraction(2), 3, 2, 1, STAR2) is None


def test_search_on_identity_returns_empty_certificate():
    cert = search_power_certificate(
        Word(()), Fraction(1), 3, max_factors=0, max_base_length=1, space=INTERVAL
    )
    assert cert is not None and cert.bases == ()


def test_search_finds_two_factor_witness():
    space = STAR2
    target = parse_word("e1 e1 e1 e2 e2 e2", space)
    cert = search_power_certificate(
        target, Fraction(3, 2), 3, max_factors=2, max_base_length=1, space=space
    )
    assert cert is not None
    assert power_certificate_failure(cert, space) is None
    assert cert.bases == (parse_word("e1", space), parse_word("e2", space))


def test_search_results_always_verify():
    rng = random.Random(8)
    for _ in range(40):
        bases = tuple(random_reduced_word(rng, STAR2, 2) for _ in range(rng.randint(0, 2)))
        target = Word(())
        for x in bases:
            target = Word(target.letters + word_power(x, 3, "e").letters)
        c = Fraction(3)
        found = search_power_certificate(
            target, c, 3, max_factors=2, max_base_length=2, space=STAR2
        )
        if found is not None:
            assert power_certificate_failure(found, STAR2) is None


# The Word-level breadth-first search the library used before states were
# coded as int tuples, kept verbatim as the reference for the fast search.
def _reference_candidate_points(w, space):
    if isinstance(space, FiniteSpace):
        return [p for p in space.points if p != space.base]
    pts = sorted({letter.point for letter in w} - {space.base})
    return pts


def _reference_search(w, c, n, max_factors, max_base_length, space):
    target = free_reduce(w, space.base)
    if len(target) == 0:
        return PowerCertificate(n=n, c=c, target=target, bases=())

    alphabet = signed_alphabet(_reference_candidate_points(w, space))
    candidates = [
        base
        for base in enumerate_reduced_words(alphabet, max_base_length)
        if len(base) > 0 and graev_norm(base, space) < c
    ]

    frontier: dict[Word, tuple[Word, ...]] = {Word(()): ()}
    seen = {Word(())}
    for _ in range(max_factors):
        nxt: dict[Word, tuple[Word, ...]] = {}
        for state, used in frontier.items():
            for base in candidates:
                reached = concat(state, word_power(base, n, space.base), space.base)
                if reached == target:
                    return PowerCertificate(n=n, c=c, target=target, bases=used + (base,))
                if reached not in seen:
                    seen.add(reached)
                    nxt[reached] = used + (base,)
        frontier = nxt
        if not frontier:
            break
    return None


def _grid_targets(rng, space, c, points):
    """Targets for one budget cell: a product of cubes of admissible bases;
    a word whose exponent sums rule every such product out; a^9 x^3 for a
    letter a and an admissible base x, which has several certificates when
    a a is admissible (bases a, a a, x or a a, a, x); and x^3 for a base x
    with N(x) = c, which x itself does not certify."""
    alphabet = signed_alphabet(points)
    words = [x for x in enumerate_reduced_words(alphabet, 3) if len(x)]
    pool = [x for x in words if len(x) <= 2 and graev_norm(x, space) < c]
    found = Word(())
    for _ in range(rng.randint(1, 3)):
        found = concat(found, word_power(rng.choice(pool), 3, space.base), space.base)
    a = Word((rng.choice(alphabet),))
    x = rng.choice(pool)
    repeated = concat(word_power(a, 9, space.base), word_power(x, 3, space.base), space.base)
    edge = word_power(rng.choice([x for x in words if graev_norm(x, space) == c]), 3, space.base)
    while True:
        letters = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
        unknown = free_reduce(Word(letters), space.base)
        if any(exponent_sum(unknown, p) % 3 for p in points):
            return found, unknown, repeated, edge


def test_search_matches_the_reference_search():
    rng = random.Random(11)
    outcomes = set()
    cells = [(f, length) for f in range(4) for length in range(1, 4)]
    # over star2 the radius 3 admits e1 e1, so a^9 x^3 has several certificates
    for space, c in ((STAR2, Fraction(3)), (STAR3, Fraction(2)), (INTERVAL, None)):
        # four factors over single letters: the lookup then follows three stored levels
        for max_factors, max_base_length in cells + ([(4, 1)] if space is not INTERVAL else []):
            if space is INTERVAL:
                points = sorted(Fraction(x, 10) for x in rng.sample(range(1, 10), 2))
                c = points[1]  # the norm of the larger letter
            else:
                points = [p for p in space.points if p != space.base]
            targets = list(_grid_targets(rng, space, c, points))
            if max_factors == 4:
                product = Word(())
                for _ in range(4):
                    letter = Word((rng.choice(signed_alphabet(points)),))
                    product = concat(product, word_power(letter, 3, space.base), space.base)
                targets.append(product)
            for target in targets:
                args = (target, c, 3, max_factors, max_base_length, space)
                expected = _reference_search(*args)
                got = search_power_certificate(*args)
                assert (got is None) == (expected is None), args
                if got is not None:
                    assert got.bases == expected.bases, args
                    assert power_certificate_failure(got, space) is None
                outcomes.add((space.kind, got is not None))
    assert len(outcomes) == 4, "the grid must reach both verdicts on both kinds of space"


def test_search_cancels_at_the_junction_of_the_products_it_stores():
    # y^3 starts with the inverse of the letter x^3 ends with, so the stored
    # product x^3 y^3 is right only if that junction cancels
    x, y, z = (parse_word(text, STAR3) for text in ("e1 e2", "e2^-1 e3", "e3^-1 e1"))
    target = free_reduce(Word(x.letters * 3 + y.letters * 3 + z.letters * 3), "e")
    args = (target, Fraction(3), 3, 3, 2, STAR3)
    expected = _reference_search(*args)
    assert expected is not None and search_power_certificate(*args).bases == expected.bases


@pytest.mark.parametrize("c", [Fraction(0), Fraction(-1, 2)])
def test_search_refuses_a_radius_that_is_not_positive(c):
    for target in ("e1 e1 e1", ""):
        with pytest.raises(ValueError) as raised:
            search_power_certificate(parse_word(target, STAR3), c, 3, 1, 1, STAR3)
        assert str(raised.value) == f"the radius must be positive, got {c}"


def test_search_raises_when_the_certificate_it_found_fails(monkeypatch):
    # an explicit error, not an assert, so it survives python -O
    monkeypatch.setattr(certificates, "power_certificate_failure", lambda p, space: "forced")
    with pytest.raises(RuntimeError, match="^the search found a certificate that fails: forced$"):
        search_power_certificate(parse_word("e1 e1 e1", STAR3), Fraction(2), 3, 1, 1, STAR3)


def test_candidates_are_the_bases_of_norm_below_c():
    # the integer cost table must select exactly graev_norm < c, ties
    # included; the interval points have coprime denominators, so every
    # cost denominator counts towards the scale, and the pair a b^-1 of the
    # triangle costs d(a, b) = 2/3, a denominator no fixed cost has
    distances = {("e", "a"): Fraction(1), ("e", "b"): Fraction(1), ("a", "b"): Fraction(2, 3)}
    triangle = FiniteSpace("e", ("e", "a", "b"), distances)
    cases = (
        (triangle, ["a", "b"], 3),
        (STAR2, [p for p in STAR2.points if p != "e"], 4),
        (STAR3, [p for p in STAR3.points if p != "e"], 3),
        (chain_space(4), [f"f{i}" for i in range(1, 5)], 3),
        (INTERVAL, [Fraction(1, 3), Fraction(2, 5), Fraction(6, 7)], 3),
    )
    for space, points, max_base_length in cases:
        alphabet = signed_alphabet(points)
        words = [x for x in enumerate_reduced_words(alphabet, max_base_length) if len(x)]
        norms = {x: graev_norm(x, space) for x in words}
        values = sorted(set(norms.values()))
        # every candidate norm as the radius, and a radius between each two
        radii = values + [(a + b) / 2 for a, b in zip(values, values[1:])] + [values[-1] + 1]
        for c in radii:
            expected = [x for x in words if norms[x] < c]
            keys = certificates._candidate_bases(alphabet, c, max_base_length, space)
            assert [Word(tuple(alphabet[x] for x in key)) for key in keys] == expected, (space, c)


def test_search_raises_when_two_candidates_share_a_power(monkeypatch):
    # n-th roots are unique in a free group, so a shared power is a defect;
    # an explicit error, not an assert, so it survives python -O
    monkeypatch.setattr(certificates, "word_power", lambda w, n, base: Word(w.letters[:1] * n))
    with pytest.raises(RuntimeError, match="have the same power"):
        search_power_certificate(parse_word("e1 e1 e1", STAR2), Fraction(3), 3, 1, 2, STAR2)


def test_search_rejects_negative_budgets():
    target = parse_word("e1 e1 e1", STAR2)
    with pytest.raises(ValueError, match="non-negative"):
        search_power_certificate(target, Fraction(2), 3, -1, 1, STAR2)
    with pytest.raises(ValueError, match="non-negative"):
        search_power_certificate(target, Fraction(2), 3, 1, -3, STAR2)
    assert search_power_certificate(target, Fraction(2), 3, 0, 0, STAR2) is None


def test_candidate_word_count_is_the_enumerated_word_count():
    for points in range(1, 4):
        alphabet = signed_alphabet([f"e{i}" for i in range(1, points + 1)])
        for length in range(6):
            words = sum(1 for w in enumerate_reduced_words(alphabet, length) if len(w))
            assert certificates._candidate_word_count(len(alphabet), length) == words, (points, length)


def test_search_refuses_budgets_over_the_candidate_word_limit():
    # star3 at length 8, star5 at 6 and chain4 at 7 stay allowed; star3 at 9
    # and beyond is refused before any word is enumerated
    limit = certificates.SEARCH_WORDS_MAX
    allowed = [certificates._candidate_word_count(a, length) for a, length in ((6, 8), (10, 6), (8, 7))]
    assert allowed == [585936, 664300, 1098056] and max(allowed) <= limit
    assert certificates._candidate_word_count(6, 9) > limit
    # over one interval point every length adds only 2 words
    cases = [(STAR3, "e1 e2", length, 6) for length in (9, 12, 10**30)] + [(INTERVAL, "1/2", 10**12, 2)]
    for space, target, length, letters in cases:
        start = time.perf_counter()
        with pytest.raises(ValueError) as raised:
            search_power_certificate(parse_word(target, space), Fraction(2), 3, 3, length, space)
        assert time.perf_counter() - start < 1
        assert str(raised.value) == (
            f"base length {length} over {letters} signed letters is above the limit of {limit} candidate words"
        )


def test_search_refuses_the_candidate_powers_before_building_one(monkeypatch):
    # the cubes of the six star3 letters, each of norm 1 < 2, have 18 letters
    monkeypatch.setattr(certificates, "POWER_LETTERS_MAX", 17)
    built = []
    monkeypatch.setattr(certificates, "word_power", lambda *args: built.append(args) or word_power(*args))
    with pytest.raises(ValueError):
        search_power_certificate(parse_word("e1 e2", STAR3), Fraction(2), 3, 1, 1, STAR3)
    assert built == []


def test_search_answers_a_target_outside_the_alphabet_before_its_budget():
    # no product of candidate powers has a letter outside the space, so the
    # search answers None before it checks a budget the word limit refuses
    target = Word((Letter("e1"), Letter("x")))
    assert search_power_certificate(target, Fraction(2), 3, 3, 12, STAR3) is None
    with pytest.raises(ValueError, match="candidate words"):
        search_power_certificate(Word((Letter("e1"),)), Fraction(2), 3, 3, 12, STAR3)


def test_search_skips_a_certificate_over_the_power_letter_limit(monkeypatch):
    # the cubes of the candidates 1/2 and 1/2^-1 have 6 letters in all, but
    # the one certificate of (1/2)^9 within three factors, (1/2, 1/2, 1/2), has 9
    target = parse_word(" ".join(["1/2"] * 9), INTERVAL)
    half = parse_word("1/2", INTERVAL)
    monkeypatch.setattr(certificates, "POWER_LETTERS_MAX", 9)
    assert search_power_certificate(target, Fraction(1), 3, 3, 1, INTERVAL).bases == (half, half, half)
    monkeypatch.setattr(certificates, "POWER_LETTERS_MAX", 8)
    assert search_power_certificate(target, Fraction(1), 3, 3, 1, INTERVAL) is None


def test_exponent_sum_examples():
    assert exponent_sum(parse_word("e1 e2 e1^-1", STAR2), "e1") == 0
    assert exponent_sum(parse_word("e1 e1 e1", STAR2), "e1") == 3
    assert exponent_sum(parse_word("e1 e2^-1 e2^-1", STAR2), "e2") == -2


def test_exponent_sum_is_a_homomorphism():
    rng = random.Random(6)
    for _ in range(200):
        u = random_reduced_word(rng, STAR3, 6)
        v = random_reduced_word(rng, STAR3, 6)
        uv = Word(u.letters + v.letters)
        for g in ("e1", "e2", "e3"):
            assert exponent_sum(uv, g) == exponent_sum(u, g) + exponent_sum(v, g)


def test_obstruction_fires_on_skew_power():
    word = word_power(parse_word("e1 e2", STAR2), 2, "e")
    assert exponent_obstruction(word, 2, 3) == "exponent sums (f_e1 = 2, f_e2 = 2) are all nonzero mod 3"


def test_obstruction_silent_on_conjugate():
    assert exponent_obstruction(parse_word("e1 e2 e1^-1", STAR2), 2, 3) is None


def test_obstruction_silent_on_cube():
    word = word_power(parse_word("e1 e2 e3", STAR3), 3, "e")
    assert exponent_obstruction(word, 3, 3) is None


def test_obstruction_validates_arguments():
    with pytest.raises(ValueError, match="odd"):
        exponent_obstruction(Word(()), 2, 4)
    with pytest.raises(ValueError, match="e1..e2"):
        exponent_obstruction(parse_word("e3", STAR3), 2, 3)
    with pytest.raises(ValueError, match="^m must be at least 1, got 0$"):
        exponent_obstruction(Word(()), 0, 3)


def test_decomposition_json_roundtrip():
    decomposition = decompose_conjugates(parse_word("e1 e2 e1^-1", STAR3), 3)
    payload = decomposition_to_json(decomposition)
    assert payload == {
        "m": 3,
        "target": "e1 e2 e1^-1",
        "factors": [{"g": "e1", "a": "e2"}],
    }
    assert decomposition_from_json(payload) == decomposition


def test_json_loaders_reject_null_lists():
    with pytest.raises(ValueError, match="'bases' must be a list of strings"):
        power_certificate_from_json({"n": 3, "c": "1", "target": "", "bases": None}, INTERVAL)
    with pytest.raises(ValueError, match="'factors' must be a list of objects"):
        decomposition_from_json({"m": 3, "target": "", "factors": None})


def test_power_certificate_json_roundtrip():
    cert = PowerCertificate(
        n=3,
        c=Fraction(1, 2),
        target=parse_word("2/5 2/5 2/5", INTERVAL),
        bases=(parse_word("2/5", INTERVAL),),
    )
    payload = power_certificate_to_json(cert)
    assert payload == {"n": 3, "c": "1/2", "target": "2/5 2/5 2/5", "bases": ["2/5"]}
    assert power_certificate_from_json(payload, INTERVAL) == cert
