import random
from fractions import Fraction
from math import lcm

import pytest

import graev.norm
from graev.norm import (
    BRUTE_FORCE_MAX,
    enumerate_sigma,
    graev_metric,
    graev_norm,
    interval_fill,
    matching_to_json,
    norm_bruteforce,
    norm_dp,
)
from graev.spaces import (
    INTERVAL,
    SCALE_DIGITS_MAX,
    FiniteSpace,
    chain_space,
    check_scale,
    star_space,
    tilde_dist,
)
from graev.suite import insert_cancelling_pairs, random_any_word, random_letter, random_reduced_word
from graev.words import Letter, Word, conjugate, cyclic_shift, free_reduce, invert_word, parse_word

STAR3 = star_space(3)
SPACES = (star_space(2), STAR3, INTERVAL)
# d(a, b) = 2/3 is a denominator only the pair a b^-1 has: every fixed
# cost and every cross-sign pair cost is an integer
TRIANGLE = FiniteSpace(
    "e", ("e", "a", "b"), {("e", "a"): Fraction(1), ("e", "b"): Fraction(1), ("a", "b"): Fraction(2, 3)}
)
FIVE_SPACES = (INTERVAL, star_space(2), STAR3, chain_space(4), TRIANGLE)


def _reference_bruteforce(w: Word, space) -> Fraction:
    """The Fraction brute force that ``norm_bruteforce`` replaced, kept verbatim."""
    k = len(w)
    if k == 0:
        return Fraction(0)
    if k > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_MAX} letters, got {k}")
    letters = w.letters
    inverses = [letter.inverse() for letter in letters]
    cost = [
        [tilde_dist(letters[i], inverses[j], space) for j in range(k)] for i in range(k)
    ]
    best = min(
        sum(cost[i][matching.map[i] - 1] for i in range(k)) for matching in enumerate_sigma(k)
    )
    return best / 2


def _fraction_costs(word, space):
    """The fix and pair costs of a word as ``Fraction``s, one ``tilde_dist``
    each: d~(x, e) and d~(x_t, x_j^-1)."""
    fix = [tilde_dist(x, Letter(space.base), space) for x in word]
    pair = [[tilde_dist(x, y.inverse(), space) for y in word] for x in word]
    return fix, pair


def _seeded_word(rng, space, k):
    """An unreduced word of k letters over ``space``: about a fifth of the
    letters not in cancelling pairs are base-point letters."""
    pairs = rng.randint(0, k // 2)
    letters = [random_letter(rng, space, base_prob=0.2) for _ in range(k - 2 * pairs)]
    return insert_cancelling_pairs(rng, Word(tuple(letters)), pairs, space)


def _oracle_corpus():
    """Seeded unreduced words of every length 0..10, with base-point letters
    and cancelling pairs, over five spaces."""
    rng = random.Random(4096)
    for space in FIVE_SPACES:
        for k in range(BRUTE_FORCE_MAX + 1):
            for _ in range(3 if k < 9 else 1):
                yield space, _seeded_word(rng, space, k)


def _reference_fill(fix, pair, zero):
    """The unpruned span-by-span fill that ``interval_fill`` replaced, kept verbatim."""
    k = len(fix)
    cost = [[zero] * (k + 1) for _ in range(k + 1)]
    back = [[-1] * k for _ in range(k)]
    for span in range(1, k + 1):
        for i in range(0, k - span + 1):
            j = i + span - 1
            row = cost[i]
            best = row[j] + fix[j]
            choice = -1
            for t in range(i, j):
                cand = row[t] + pair[t][j] + cost[t + 1][j]
                if cand < best:
                    best, choice = cand, t
            row[j + 1], back[i][j] = best, choice
    return cost[0][k], back


def _tied_table(rng, k):
    """Random integer costs 0..3 in which, at random cells, the split of x_j
    at its own row i is reset so that pair[i][j] + C(i+1, j-1) equals leaving
    x_j unmatched, C(i, j-1) + fix[j], or the best later split t > i at row
    i; such pair costs may leave 0..3, negative ones included.  Built column
    by column, i going down, as the fill itself runs."""
    fix = [rng.randint(0, 3) for _ in range(k)]
    pair = [[rng.randint(0, 3) for _ in range(k)] for _ in range(k)]
    cost = [[0] * (k + 1) for _ in range(k + 1)]  # cost[i][j + 1] = C(i, j)
    for j in range(k):
        cost[j][j + 1] = fix[j]
        for i in range(j - 1, -1, -1):
            unmatched = cost[i][j] + fix[j]
            later = [cost[i][t] + pair[t][j] + cost[t + 1][j] for t in range(i + 1, j)]
            target = rng.choice((unmatched, min(later, default=unmatched), None))
            if target is not None:
                pair[i][j] = target - cost[i + 1][j]
            cost[i][j + 1] = min(unmatched, pair[i][j] + cost[i + 1][j], *later)
    return fix, pair


def _fill_corpus():
    """Fraction costs of seeded unreduced words (base-point letters, every k
    from 0 to 20, then up to 40 in steps of 5) over five spaces, then small
    integer tables full of ties, then the forced ties of ``_tied_table``."""
    rng = random.Random(5150)
    for space in FIVE_SPACES:
        for k in [*range(21), 25, 30, 35, 40]:
            yield (*_fraction_costs(_seeded_word(rng, space, k), space), Fraction(0))
    for _ in range(500):
        k = rng.randint(0, 12)
        fix = [rng.randint(0, 2) for _ in range(k)]
        # a third of the pairs sit exactly on the pruning bound fix[t] + fix[j]
        pair = [
            [fix[t] + fix[j] if rng.random() < 1 / 3 else rng.randint(0, 4) for j in range(k)]
            for t in range(k)
        ]
        yield fix, pair, 0
    for _ in range(3000):
        yield (*_tied_table(rng, rng.randint(0, 14)), 0)


def test_fill_equals_the_reference_fill():
    for fix, pair, zero in _fill_corpus():
        assert interval_fill(fix, pair) == _reference_fill(fix, pair, zero), (fix, pair)


def test_fill_weighs_only_splits_that_won_their_row():
    adds = 0

    class Counted(int):
        """An int that counts the additions made with it."""

        def __add__(self, other):
            nonlocal adds
            adds += 1
            return Counted(int(self) + int(other))

        __radd__ = __add__

    rng = random.Random(64)
    letters = []
    while len(letters) < 64:
        letter = random_letter(rng, INTERVAL)
        if not letters or letter != letters[-1].inverse():
            letters.append(letter)
    fix, pair, _ = INTERVAL.integer_costs(letters)
    value, back = interval_fill([Counted(v) for v in fix], [[Counted(v) for v in row] for row in pair])
    assert (value, back) == _reference_fill(fix, pair, 0)
    # 13791 with the row-winner rule, C(j, j) = fix[j] taking none; keeping
    # every split t that passes pair[t][j] < fix[t] + fix[j], as the fill
    # once did, makes 26140
    assert adds <= 13791


def _recover(back, k):
    """The image array of the matching a choice table picks, recovered by
    recursion: x_j unmatched in i..j, or paired with t, which leaves the
    ranges t+1..j-1 and i..t-1."""
    image = list(range(1, k + 1))

    def walk(i, j):
        while i <= j:
            t = back[i][j]
            if t >= 0:
                image[t], image[j] = j + 1, t + 1
                walk(t + 1, j - 1)
                j = t
            j -= 1

    walk(0, k - 1)
    return tuple(image)


def test_dp_matching_is_the_one_the_reference_choice_table_picks():
    for space, word in _cost_corpus():
        value, matching = norm_dp(word, space)
        fix, pair, scale = space.integer_costs(word.letters)
        ref_value, back = _reference_fill(fix, pair, 0)
        assert value == Fraction(ref_value, scale), word
        assert matching.map == _recover(back, len(word)), word


def test_dp_recovers_the_reference_fill_matchings(monkeypatch):
    rng = random.Random(6160)
    words = [(space, random_any_word(rng, space, 40, base_prob=0.2)) for space in SPACES * 8]
    ours = [norm_dp(word, space) for space, word in words]
    monkeypatch.setattr(graev.norm, "interval_fill", lambda fix, pair: _reference_fill(fix, pair, 0))
    assert ours == [norm_dp(word, space) for space, word in words]


def test_single_generator_norm_is_its_base_distance():
    # N(x) = d~(x, e) on one letter; the star table has d(e1, e) = 1
    word = parse_word("e1", STAR3)
    assert norm_bruteforce(word, STAR3) == 1


def test_empty_word_has_zero_norm():
    # the rational 0 in every evaluator, not the int 0 a fill over no positions leaves
    for space in FIVE_SPACES:
        value, matching = norm_dp(Word(()), space)
        assert type(value) is Fraction and value == 0 and matching.map == ()
        for norm in (norm_bruteforce, graev_norm):
            assert type(norm(Word(()), space)) is Fraction and norm(Word(()), space) == 0


def test_conjugated_generator_costs_one():
    # optimal matching pairs the e1 letters at zero cost; e2 stays fixed
    word = parse_word("e1 e2 e1^-1", STAR3)
    assert norm_bruteforce(word, STAR3) == 1


def test_dp_pairs_interval_letters():
    value, matching = norm_dp(parse_word("2/5 4/5^-1", INTERVAL), INTERVAL)
    assert value == Fraction(2, 5)
    assert matching.map == (2, 1)


def test_dp_on_two_star_generators():
    value, _ = norm_dp(parse_word("e1 e2", STAR3), STAR3)
    assert value == 2


def test_dp_on_cancelling_interval_pair():
    value, _ = norm_dp(parse_word("2/5 2/5^-1", INTERVAL), INTERVAL)
    assert value == 0


def test_dp_three_interval_letters():
    # by hand over the 4 matchings of sigma_3 the optimum pairs positions 1, 3
    value, matching = norm_dp(parse_word("1/2 1/3 1/6^-1", INTERVAL), INTERVAL)
    assert value == Fraction(2, 3)
    assert matching.map == (3, 2, 1)
    assert norm_bruteforce(parse_word("1/2 1/3 1/6^-1", INTERVAL), INTERVAL) == value


def test_brute_force_guard():
    long_word = Word(tuple(parse_word("e1", STAR3).letters * 11))
    with pytest.raises(ValueError, match="limited"):
        norm_bruteforce(long_word, STAR3)


def test_bruteforce_equals_the_reference_bruteforce():
    lengths = set()
    for space, word in _oracle_corpus():
        assert len(word) <= BRUTE_FORCE_MAX
        assert norm_bruteforce(word, space) == _reference_bruteforce(word, space), (space, word)
        lengths.add(len(word))
    assert lengths == set(range(BRUTE_FORCE_MAX + 1))


def test_bruteforce_consumes_every_matching(monkeypatch):
    seen = []

    def spy(k):
        for matching in enumerate_sigma(k):
            seen.append(matching)
            yield matching

    monkeypatch.setattr(graev.norm, "enumerate_sigma", spy)
    word = parse_word("e1 e2^-1 e e1 e2 e1^-1 e2", STAR3)
    assert norm_bruteforce(word, STAR3) == _reference_bruteforce(word, STAR3)
    assert seen == list(enumerate_sigma(len(word)))


def test_integer_costs_cover_pair_only_denominators():
    letters = parse_word("a b^-1 a", TRIANGLE).letters
    fix, pair, scale = TRIANGLE.integer_costs(letters)
    assert scale == 3
    assert fix == [3, 3, 3]
    # the diagonal d~(x, x^-1) = 2 d~(x, e); a b^-1 b^-1 pays d(a, b) = 2/3
    assert [pair[i][i] for i in range(3)] == [6, 6, 6]
    assert pair[0][1] == pair[1][0] == 2 and pair[0][2] == 6
    ref_fix, ref_pair = _fraction_costs(letters, TRIANGLE)
    assert fix == [3 * v for v in ref_fix] and pair == [[3 * v for v in row] for row in ref_pair]


def _reference_costs(letters, space):
    """The Fraction cost build that ``integer_costs`` replaced, one
    ``tilde_dist`` per cost of distinct letters."""
    index: dict[Letter, int] = {}
    at = [index.setdefault(x, len(index)) for x in letters]
    fix, pair = _fraction_costs(list(index), space)
    scale = lcm(*(v.denominator for v in fix), *(v.denominator for row in pair for v in row))
    fix = [v.numerator * (scale // v.denominator) for v in fix]
    pair = [[v.numerator * (scale // v.denominator) for v in row] for row in pair]
    return [fix[i] for i in at], [[pair[i][j] for j in at] for i in at], scale


def _cost_corpus():
    """Seeded unreduced words, with base-point letters, of every length 0..20
    and then up to 64, over five spaces: the interval with mixed
    denominators, star2, star3, chain4 and the triangle whose 2/3 only a
    pair cost has."""
    rng = random.Random(7231)
    for space in FIVE_SPACES:
        for k in [*range(21), 28, 36, 44, 52, 64]:
            yield space, _seeded_word(rng, space, k)


def test_integer_costs_equal_the_reference_costs():
    for space, word in _cost_corpus():
        fix, pair, scale = space.integer_costs(word.letters)
        ref_fix, ref_pair, ref_scale = _reference_costs(word.letters, space)
        assert [Fraction(v, scale) for v in fix] == [Fraction(v, ref_scale) for v in ref_fix], word
        for row, ref_row in zip(pair, ref_pair, strict=True):
            assert [Fraction(v, scale) for v in row] == [Fraction(v, ref_scale) for v in ref_row], word
        if space is INTERVAL:  # the lcm of the letters' denominators, as before
            assert scale == ref_scale


def _replaced_space_costs(space, letters):
    """Each space's ``integer_costs`` as it was when it took distinct letters
    (point, sign), kept verbatim but for the finite space's signed table,
    which it built from its distances once."""
    if space is INTERVAL:
        scale = 1
        for p, _ in letters:
            if not space.contains(p):
                raise ValueError(f"letter point {p!r} is not in the space")
            scale = lcm(scale, p.denominator)
        scale = check_scale(scale, "the letters'")
        whole = [(p.numerator * (scale // p.denominator), s) for p, s in letters]
        pair = [[abs(a - b) if s != r else a + b for b, r in whole] for a, s in whole]
        return [a for a, _ in whole], pair, scale
    base = space.base
    scale = check_scale(lcm(*(d.denominator for d in space.table.values())), "the space's")
    whole = {key: d.numerator * (scale // d.denominator) for key, d in space.table.items()}
    scaled = {(a, b): (d, whole[a, base] + whole[base, b]) for (a, b), d in whole.items()}
    try:
        fix = [scaled[p, base][0] for p, _ in letters]
        pair = [[scaled[p, q][s == r] for q, r in letters] for p, s in letters]
    except (KeyError, TypeError):
        bad = next(p for p, _ in letters if p not in space.points)
        raise ValueError(f"letter point {bad!r} is not in the space") from None
    return fix, pair, scale


def _replaced_integer_costs(letters, space):
    """``graev.norm.integer_costs`` as it was: the distinct letters of a word
    indexed, their costs asked of the space and copied out to positions."""
    index: dict[tuple, int] = {}
    at = [index.setdefault((x.point, x.sign), len(index)) for x in letters]
    fix, pair, scale = _replaced_space_costs(space, list(index))
    return [fix[i] for i in at], [[pair[i][j] for j in at] for i in at], scale


def test_space_costs_equal_the_replaced_distinct_letter_costs():
    # the same integers over the same scale, position by position
    for space, word in _cost_corpus():
        assert space.integer_costs(word.letters) == _replaced_integer_costs(word.letters, space), word


def test_value_only_norms_and_metrics_equal_norm_dp():
    rng = random.Random(7232)
    for space, word in _cost_corpus():
        assert graev_norm(word, space) == norm_dp(free_reduce(word, space.base), space)[0], word
        other = _seeded_word(rng, space, rng.randint(0, 8))
        product = Word(word.letters + invert_word(other).letters)
        assert graev_metric(word, other, space) == norm_dp(product, space)[0], (word, other)


def test_integer_costs_do_no_fraction_arithmetic(monkeypatch):
    rng = random.Random(77)
    words = [(space, _seeded_word(rng, space, 24)) for space in (INTERVAL, STAR3, chain_space(4))]
    expected = [_reference_costs(word.letters, space) for space, word in words]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in integer_costs")

    # the operators, not only _add and the like: Fraction's operators hold
    # the private helpers in closures made with the class
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__abs__",
                 "_add", "_sub", "_mul"):
        monkeypatch.setattr(Fraction, name, refuse)
    costs = [space.integer_costs(word.letters) for space, word in words]
    monkeypatch.undo()
    assert costs == expected  # each scale here is the lcm of the costs' denominators


def test_scale_limit_admits_exactly_its_digits():
    assert check_scale(10**SCALE_DIGITS_MAX - 1, "these") == 10**SCALE_DIGITS_MAX - 1
    with pytest.raises(ValueError) as raised:
        check_scale(10**SCALE_DIGITS_MAX, "these")
    assert str(raised.value) == f"these common denominator is above the limit of {SCALE_DIGITS_MAX} digits"
    # one interval letter whose denominator is the scale, in every norm
    under, over = (Word((Letter(Fraction(1, q)),)) for q in (10**SCALE_DIGITS_MAX - 1, 10**SCALE_DIGITS_MAX))
    for norm in (graev_norm, norm_bruteforce, lambda w, space: norm_dp(w, space)[0]):
        assert norm(under, INTERVAL) == Fraction(1, 10**SCALE_DIGITS_MAX - 1)
        with pytest.raises(ValueError) as raised:
            norm(over, INTERVAL)
        assert str(raised.value) == f"the letters' common denominator is above the limit of {SCALE_DIGITS_MAX} digits"


def test_dp_equals_brute_force_randomized():
    rng = random.Random(2024)
    for index in range(400):
        space = SPACES[index % len(SPACES)]
        word = random_any_word(rng, space, 8, base_prob=0.1)
        assert norm_dp(word, space)[0] == norm_bruteforce(word, space)


def test_norm_is_representation_independent():
    rng = random.Random(99)
    for index in range(300):
        space = SPACES[index % len(SPACES)]
        base = random_reduced_word(rng, space, 4)
        inflated = insert_cancelling_pairs(rng, base, rng.randint(1, 3), space)
        assert norm_dp(inflated, space)[0] == norm_dp(base, space)[0]
        assert norm_bruteforce(inflated, space) == norm_dp(base, space)[0]


def test_norm_is_conjugation_invariant():
    rng = random.Random(7)
    for index in range(300):
        space = SPACES[index % len(SPACES)]
        word = random_any_word(rng, space, 5)
        g = random_any_word(rng, space, 3)
        assert graev_norm(conjugate(g, word, space.base), space) == graev_norm(word, space)


def test_norm_is_cyclic_shift_invariant():
    rng = random.Random(8)
    for index in range(300):
        space = SPACES[index % len(SPACES)]
        word = random_reduced_word(rng, space, 8)
        k = rng.randint(0, 8)
        assert graev_norm(cyclic_shift(word, k), space) == graev_norm(word, space)


def test_norm_axioms_randomized():
    rng = random.Random(13)
    for index in range(300):
        space = SPACES[index % len(SPACES)]
        u = random_any_word(rng, space, 6)
        v = random_any_word(rng, space, 6)
        nu, nv = graev_norm(u, space), graev_norm(v, space)
        assert nu == graev_norm(invert_word(u), space)
        assert graev_norm(Word(u.letters + v.letters), space) <= nu + nv
        assert (nu == 0) == (len(free_reduce(u, space.base)) == 0)


def test_metric_extends_interval_distance():
    u, v = parse_word("2/5", INTERVAL), parse_word("4/5", INTERVAL)
    assert graev_metric(u, v, INTERVAL) == Fraction(2, 5)


def test_metric_vanishes_on_equal_words():
    word = parse_word("e1 e2^-1", STAR3)
    assert graev_metric(word, word, STAR3) == 0


def test_metric_between_star_generators():
    u, v = parse_word("e1", STAR3), parse_word("e2", STAR3)
    assert graev_metric(u, v, STAR3) == 2


def test_metric_extends_d_on_every_generator_pair():
    for space in (star_space(2), STAR3):
        for a in space.points:
            for b in space.points:
                u = free_reduce(parse_word(a, space), space.base)
                v = free_reduce(parse_word(b, space), space.base)
                assert graev_metric(u, v, space) == space.dist(a, b)


def test_identity_matching_upper_bound():
    rng = random.Random(21)
    for index in range(200):
        space = SPACES[index % len(SPACES)]
        word = random_any_word(rng, space, 8)
        bound = sum(
            (space.dist(letter.point, space.base) for letter in word), Fraction(0)
        )
        assert norm_dp(word, space)[0] <= bound


def test_pair_cost_is_orientation_free():
    # d~(x_t, x_j^-1) = d~(x_j, x_t^-1), so one pair term stands for both:
    # the pair table of ``integer_costs`` is symmetric
    rng = random.Random(55)

    for index in range(300):
        space = SPACES[index % len(SPACES)]
        a = random_letter(rng, space, base_prob=0.25)
        b = random_letter(rng, space, base_prob=0.25)
        _, pair, _ = space.integer_costs([a, b])
        assert pair[0][1] == pair[1][0]


def test_fixed_cost_is_half_the_distance_to_the_inverse():
    # d~(x, e) = d~(x, x^-1) / 2, the price of an unmatched position: the
    # diagonal of the pair table of ``integer_costs`` is twice the fix cost
    rng = random.Random(56)

    for index in range(300):
        space = SPACES[index % len(SPACES)]
        a = random_letter(rng, space, base_prob=0.25)
        fix, pair, _ = space.integer_costs([a])
        assert pair[0][0] == 2 * fix[0]


def test_matching_json_schema_and_roundtrip():
    value, matching = norm_dp(parse_word("e1 e2 e1^-1", STAR3), STAR3)
    payload = matching_to_json(matching, value)
    assert payload == {
        "k": 3,
        "map": [3, 2, 1],
        "cost": "1",
        "pairs": [[1, 3]],
        "fixed": [2],
    }
