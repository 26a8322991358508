"""Seeded property suites over every part of the library.

Every property is a stream of outcomes, ``None`` for a case that holds and a
counterexample for one that fails, counted by ``_tally``.  ``_run`` makes the
stream for a random property: case i calls its check with the property's own
generator, seeded by (seed, name), and ``cycle[i % len(cycle)]``, the space or
star rank the case is about (``None`` if the check needs neither), so a
(seed, cases) pair pins the whole run byte for byte.  The exhaustive
properties stream a fixed list of cases whatever the case count.  Results
carry pass/fail counts and the first counterexample; the CLI renders them as
a table and the acceptance tests re-run them at larger case counts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional, Sequence

from .certificates import (
    PowerCertificate,
    conjugate_decomposition_failure,
    decompose_conjugates,
    exponent_obstruction,
    exponent_sum,
    power_certificate_failure,
    transport_certificate,
    word_power,
)
from .maps import (
    PartialContraction,
    PointMap,
    check_contraction,
    check_cross_extension,
    extend_endomorphism,
    extend_partial_contraction,
    rescale_grid_word,
    scaling_norm_law,
    translate_word,
    triangular_translation,
)
from .norm import (
    enumerate_sigma,
    graev_metric,
    graev_norm,
    integer_costs,
    is_sigma,
    noncrossing_involutions,
    norm_bruteforce,
    norm_dp,
)
from .spaces import INTERVAL, FiniteSpace, Space, chain_space, star_space
from .words import (
    Letter,
    Word,
    concat,
    conjugate,
    cyclic_shift,
    enumerate_reduced_words,
    format_word,
    free_reduce,
    invert_word,
    is_reduced,
    signed_alphabet,
)
from .values import Value

MOTZKIN_1_TO_8 = (1, 2, 4, 9, 21, 51, 127, 323)


class PropertyResult(Value):
    """A property's case and failure counts and its first counterexample."""

    __slots__ = _fields = ("name", "cases", "failures", "counterexample")

    def __init__(
        self, name: str, cases: int, failures: int, counterexample: Optional[str] = None
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "failures", failures)
        object.__setattr__(self, "counterexample", counterexample)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _tally(name: str, outcomes: Iterable[Optional[str]]) -> PropertyResult:
    """Count the outcomes and the failures (non-None) among them; keep the first failure."""
    cases = failures = 0
    counterexample = None
    for fail in outcomes:
        cases += 1
        if fail is not None:
            failures += 1
            if counterexample is None:
                counterexample = fail
    return PropertyResult(name, cases, failures, counterexample)


def _run(name: str, total: int, check: Callable[[random.Random, Any], Optional[str]], seed: int,
         cycle: Sequence[Any] = (None,)) -> PropertyResult:
    rng = random.Random(f"{seed}:{name}")
    return _tally(name, (check(rng, cycle[i % len(cycle)]) for i in range(total)))


# random generators


def random_rational(rng: random.Random, max_den: int = 10, allow_zero: bool = True) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(0 if allow_zero else 1, den)
    return Fraction(num, den)


def random_letter(rng: random.Random, space: Space, allow_base: bool = False) -> Letter:
    sign = rng.choice((1, -1))
    if isinstance(space, FiniteSpace):
        pool = space.points if allow_base else space.generators
        return Letter(rng.choice(pool), sign)
    return Letter(random_rational(rng, allow_zero=allow_base), sign)


def random_any_word(rng: random.Random, space: Space, max_len: int, base_prob: float = 0.1) -> Word:
    n = rng.randint(0, max_len)
    letters = []
    for _ in range(n):
        if rng.random() < base_prob:
            letters.append(Letter(space.base, rng.choice((1, -1))))
        else:
            letters.append(random_letter(rng, space))
    return Word(tuple(letters))


def random_reduced_word(rng: random.Random, space: Space, max_len: int) -> Word:
    n = rng.randint(0, max_len)
    letters: list[Letter] = []
    while len(letters) < n:
        letter = random_letter(rng, space)
        if letters and letter.point == letters[-1].point and letter.sign == -letters[-1].sign:
            continue
        letters.append(letter)
    return Word(tuple(letters))


def insert_cancelling_pairs(rng: random.Random, w: Word, pairs: int, space: Space) -> Word:
    letters = list(w.letters)
    for _ in range(pairs):
        if rng.random() < 0.15:
            y = Letter(space.base, rng.choice((1, -1)))
        else:
            y = random_letter(rng, space)
        pos = rng.randint(0, len(letters))
        letters[pos:pos] = [y, y.inverse()]
    return Word(tuple(letters))


def random_partial_contraction(rng: random.Random) -> PartialContraction:
    count = rng.randint(1, 6)
    pts = {Fraction(0)}
    while len(pts) < count:
        pts.add(random_rational(rng, max_den=12))
    ordered = sorted(pts)
    values = [Fraction(0)]
    for prev, cur in zip(ordered, ordered[1:]):
        den = rng.randint(1, 6)
        slope = Fraction(rng.randint(-den, den), den)
        nxt = values[-1] + slope * (cur - prev)
        values.append(min(Fraction(1), max(Fraction(0), nxt)))
    return PartialContraction(tuple(ordered), tuple(values))


def random_contraction(rng: random.Random, space: Space) -> PointMap:
    """A random self-map of ``space``; over a star space or the interval it is a contraction."""
    if isinstance(space, FiniteSpace):
        table = {space.base: space.base}
        for g in space.generators:
            table[g] = rng.choice(space.points)
        return PointMap.from_table(space, space, table)
    if rng.random() < 0.4:
        return PointMap.scaling(random_rational(rng, max_den=8))
    return extend_partial_contraction(random_partial_contraction(rng))


def random_conjugate_product(rng: random.Random, m: int) -> Word:
    """A product of exactly m-1 conjugated letters (letters may be the identity)."""
    space = star_space(m)
    product = Word(())
    for _ in range(m - 1):
        g = random_reduced_word(rng, space, 3)
        if rng.random() < 0.15:
            a = Letter("e")
        else:
            a = random_letter(rng, space)
        product = concat(product, conjugate(g, Word((a,)), "e"), "e")
    return product


def random_power_certificate(rng: random.Random, space: Space, n: int) -> PowerCertificate:
    k = rng.randint(0, 3)
    bases = tuple(random_reduced_word(rng, space, 3) for _ in range(k))
    norms = [graev_norm(x, space) for x in bases]
    c = (max(norms) if norms else Fraction(0)) + Fraction(1, rng.randint(1, 4))
    target = Word(())
    for x in bases:
        target = concat(target, word_power(x, n, space.base), space.base)
    return PowerCertificate(n=n, c=c, target=target, bases=bases)


def all_reduced_words(space: FiniteSpace, max_len: int) -> Iterable[Word]:
    """Every reduced word of length <= max_len over a finite space."""
    return enumerate_reduced_words(signed_alphabet(space.generators), max_len)


def grid_alphabet(m: int) -> list[Letter]:
    return signed_alphabet([Fraction(j, m) for j in range(1, m + 1)])


TEST_SPACES: tuple[Space, ...] = (star_space(2), star_space(3), INTERVAL)


def _reduce_random_order(rng: random.Random, w: Word, base) -> Word:
    """Reference reducer: apply deletions in random order until stuck."""
    letters = list(w.letters)
    while True:
        moves = []
        for idx, letter in enumerate(letters):
            if letter.point == base:
                moves.append((idx, 1))
        for idx in range(len(letters) - 1):
            a, b = letters[idx], letters[idx + 1]
            if a.point == b.point and a.sign == -b.sign:
                moves.append((idx, 2))
        if not moves:
            return Word(tuple(letters))
        idx, width = rng.choice(moves)
        del letters[idx : idx + width]


# suites


def words_suite(seed: int, cases: int) -> list[PropertyResult]:
    triangular = triangular_translation(3)

    def reduction_check(rng, space):
        w = random_any_word(rng, space, 12, base_prob=0.2)
        canonical = free_reduce(w, space.base)
        if free_reduce(canonical, space.base) != canonical:
            return f"reduce not idempotent on '{format_word(w)}'"
        if len(canonical) > len(w):
            return f"reduce grew '{format_word(w)}'"
        if not is_reduced(canonical, space.base):
            return f"reduce left a reducible word for '{format_word(w)}'"
        for _ in range(3):
            other = _reduce_random_order(rng, w, space.base)
            if other != canonical:
                return (
                    f"confluence broke on '{format_word(w)}': "
                    f"'{format_word(other)}' vs '{format_word(canonical)}'"
                )
        return None

    def inverse_check(rng, space):
        w = random_any_word(rng, space, 8)
        if concat(w, invert_word(w), space.base) != Word(()):
            return f"w * w^-1 /= 1 for '{format_word(w)}'"
        return None

    def roundtrip_check(rng, _):
        chain, star = triangular.space_a, triangular.space_b
        w = random_reduced_word(rng, chain, 6)
        there = translate_word(w, triangular.a_to_b, chain.base, star.base)
        back = translate_word(there, triangular.b_to_a, star.base, chain.base)
        if back != w:
            return f"basis substitution round trip broke on '{format_word(w)}'"
        return None

    return [
        _run("reduction-confluent", cases, reduction_check, seed, TEST_SPACES),
        _run("inverse-cancels", cases, inverse_check, seed, TEST_SPACES),
        _run("basis-substitution-roundtrip", cases, roundtrip_check, seed),
    ]


def _tilde_table(letters: Sequence[Letter], space: Space) -> tuple[list[list[int]], int]:
    """d~ between every two of ``letters``, from one ``integer_costs`` call
    over them and their inverses: (table, scale), ``table[s][t]`` being
    d~(x_s, x_t) times the scale."""
    k = len(letters)
    _, pair, scale = integer_costs([*letters, *(x.inverse() for x in letters)], space)
    return [row[k:] for row in pair[:k]], scale


def spaces_suite(seed: int, cases: int) -> list[PropertyResult]:
    def finite_outcomes():
        for space in (star_space(2), star_space(3), chain_space(3)):
            letters = signed_alphabet(space.points)
            d, _ = _tilde_table(letters, space)
            for s, a in enumerate(letters):
                for t, b in enumerate(letters):
                    dab = d[s][t]
                    same = a.point == b.point and (
                        a.sign == b.sign or a.point == space.base
                    )
                    ok = dab >= 0 and (dab == 0) == same and dab == d[t][s]
                    if ok and all(dab <= d[s][u] + d[u][t] for u in range(len(letters))):
                        yield None
                    else:
                        yield f"axiom broke at ({format_word(Word((a,)))}, {format_word(Word((b,)))})"

    def interval_check(rng, _):
        letters = [random_letter(rng, INTERVAL, allow_base=True) for _ in range(3)]
        a, b, c = letters
        d, _ = _tilde_table(letters, INTERVAL)
        if d[0][1] != d[1][0]:
            return f"asymmetry at {a}, {b}"
        if d[0][1] > d[0][2] + d[2][1]:
            return f"triangle broke at {a}, {b} via {c}"
        same = a.point == b.point and (a.sign == b.sign or a.point == INTERVAL.base)
        if (d[0][1] == 0) != same:
            return f"identity axiom broke at {a}, {b}"
        return None

    def sign_rules_check(rng, space):
        a = random_letter(rng, space, allow_base=True)
        b = random_letter(rng, space, allow_base=True)
        # a, b, their inverses and their positive letters
        d, scale = _tilde_table((a, b, a.inverse(), b.inverse(), Letter(a.point), Letter(b.point)), space)
        if d[0][1] != d[2][3]:
            return f"sign-flip symmetry broke at {a}, {b}"
        if Fraction(d[0][2], scale) != 2 * space.dist(a.point, space.base):
            return f"opposite-sign distance is not 2*d(p, e) at {a}"
        if Fraction(d[4][5], scale) != space.dist(a.point, b.point):
            return f"positive restriction differs from d at {a}, {b}"
        return None

    return [
        _tally("tilde-dist-axioms-finite-exhaustive", finite_outcomes()),
        _run("tilde-dist-axioms-interval-random", cases, interval_check, seed),
        _run("tilde-dist-sign-rules", cases, sign_rules_check, seed, TEST_SPACES),
    ]


def sigma_suite() -> list[PropertyResult]:
    def count_outcome(k):
        got = len(enumerate_sigma(k))
        want = MOTZKIN_1_TO_8[k - 1]
        return None if got == want else f"k={k}: {got} matchings, expected {want}"

    def structural_outcome(k):
        literal = {matching.map for matching in enumerate_sigma(k)}
        structural = noncrossing_involutions(k)
        if literal == structural:
            return None
        diff = (literal ^ structural) or {()}
        return f"k={k}: sets differ at {sorted(diff)[0]}"

    ks = range(1, len(MOTZKIN_1_TO_8) + 1)
    return [
        _tally("sigma-motzkin-counts", map(count_outcome, ks)),
        _tally("sigma-structural-equality", map(structural_outcome, ks)),
    ]


def oracle_suite(seed: int, cases: int) -> list[PropertyResult]:
    def agree_check(rng, space):
        w = random_any_word(rng, space, 8, base_prob=0.05)
        brute = norm_bruteforce(w, space)
        value, _ = norm_dp(w, space)
        if brute != value:
            return f"dp {value} /= brute force {brute} on '{format_word(w)}'"
        return None

    def matching_check(rng, space):
        w = random_any_word(rng, space, 8, base_prob=0.05)
        value, matching = norm_dp(w, space)
        if len(w) and not is_sigma(matching.map):
            return f"dp matching not in the class on '{format_word(w)}'"
        fix, pair, scale = integer_costs(w.letters, space)
        paid = sum(pair[i - 1][j - 1] for i, j in matching.pairs()) + sum(fix[i - 1] for i in matching.fixed())
        recomputed = Fraction(paid, scale)
        if recomputed != value:
            return f"matching cost {recomputed} /= value {value} on '{format_word(w)}'"
        return None

    return [
        _run("oracle-dp-equals-bruteforce", cases, agree_check, seed, TEST_SPACES),
        _run("oracle-matching-consistent", cases, matching_check, seed, TEST_SPACES),
    ]


def norm_suite(seed: int, cases: int) -> list[PropertyResult]:
    def zero_check(rng, space):
        w = random_any_word(rng, space, 8, base_prob=0.2)
        value = graev_norm(w, space)
        reduced_empty = len(free_reduce(w, space.base)) == 0
        if (value == 0) != reduced_empty:
            return f"zero norm mismatch on '{format_word(w)}' (N = {value})"
        return None

    def symmetry_check(rng, space):
        w = random_any_word(rng, space, 8)
        if graev_norm(w, space) != graev_norm(invert_word(w), space):
            return f"N(w) /= N(w^-1) on '{format_word(w)}'"
        return None

    def subadditive_check(rng, space):
        u = random_any_word(rng, space, 6)
        v = random_any_word(rng, space, 6)
        if graev_norm(concat(u, v, space.base), space) > graev_norm(u, space) + graev_norm(v, space):
            return f"subadditivity broke on '{format_word(u)}' * '{format_word(v)}'"
        return None

    def representation_check(rng, space):
        base_word = random_reduced_word(rng, space, 4)
        inflated = insert_cancelling_pairs(rng, base_word, rng.randint(1, 3), space)
        canonical, _ = norm_dp(base_word, space)
        literal, _ = norm_dp(inflated, space)
        if literal != canonical:
            return f"dp value changed between '{format_word(base_word)}' and '{format_word(inflated)}'"
        if len(inflated) <= 8 and norm_bruteforce(inflated, space) != canonical:
            return f"brute force changed between '{format_word(base_word)}' and '{format_word(inflated)}'"
        return None

    def conjugation_check(rng, space):
        w = random_any_word(rng, space, 5)
        g = random_any_word(rng, space, 3)
        if graev_norm(conjugate(g, w, space.base), space) != graev_norm(w, space):
            return f"N(gwg^-1) /= N(w) for g='{format_word(g)}', w='{format_word(w)}'"
        return None

    def shift_check(rng, space):
        w = random_reduced_word(rng, space, 8)
        k = rng.randint(0, max(len(w), 1))
        if graev_norm(cyclic_shift(w, k), space) != graev_norm(w, space):
            return f"cyclic shift by {k} changed the norm of '{format_word(w)}'"
        return None

    def extension_check(rng, space):
        x = random_letter(rng, space, allow_base=True)
        y = random_letter(rng, space, allow_base=True)
        u, v = Word((Letter(x.point),)), Word((Letter(y.point),))
        if graev_metric(u, v, space) != space.dist(x.point, y.point):
            return f"metric does not extend d at ({x.point}, {y.point})"
        return None

    def upper_bound_check(rng, space):
        w = random_any_word(rng, space, 8)
        fix, _, scale = integer_costs(w.letters, space)
        bound = Fraction(sum(fix), scale)
        if norm_dp(w, space)[0] > bound:
            return f"norm above the letter-sum bound on '{format_word(w)}'"
        return None

    def metric_axioms_check(rng, space):
        u = random_any_word(rng, space, 4)
        v = random_any_word(rng, space, 4)
        z = random_any_word(rng, space, 4)
        duv = graev_metric(u, v, space)
        if duv != graev_metric(v, u, space):
            return f"metric asymmetry on '{format_word(u)}', '{format_word(v)}'"
        if duv > graev_metric(u, z, space) + graev_metric(z, v, space):
            return f"metric triangle broke on '{format_word(u)}', '{format_word(v)}'"
        return None

    return [
        _run("norm-zero-iff-identity", cases, zero_check, seed, TEST_SPACES),
        _run("norm-symmetric-under-inversion", cases, symmetry_check, seed, TEST_SPACES),
        _run("norm-subadditive", cases, subadditive_check, seed, TEST_SPACES),
        _run("norm-representation-independent", cases, representation_check, seed, TEST_SPACES),
        _run("norm-conjugation-invariant", cases, conjugation_check, seed, TEST_SPACES),
        _run("norm-cyclic-shift-invariant", cases, shift_check, seed, TEST_SPACES),
        _run("metric-extends-point-distances", cases, extension_check, seed, TEST_SPACES),
        _run("norm-letter-sum-upper-bound", cases, upper_bound_check, seed, TEST_SPACES),
        _run("metric-axioms-on-words", cases, metric_axioms_check, seed, TEST_SPACES),
    ]


def contraction_suite(seed: int, cases: int) -> list[PropertyResult]:
    def monotone_check(rng, space):
        h = random_contraction(rng, space)
        if not check_contraction(h):
            return "generated map failed the contraction check"
        w = random_any_word(rng, space, 8)
        if graev_norm(extend_endomorphism(h, w), space) > graev_norm(w, space):
            return f"norm grew under a contraction on '{format_word(w)}'"
        return None

    def scaling_check(rng, _):
        gamma = random_rational(rng, max_den=10, allow_zero=False)
        w = random_any_word(rng, INTERVAL, 6)
        scaled, law = scaling_norm_law(gamma, w)
        if scaled != law:
            return f"scaling law broke for gamma={gamma} on '{format_word(w)}'"
        return None

    def transport_check(rng, space):
        cert = random_power_certificate(rng, space, rng.choice((3, 5)))
        h = random_contraction(rng, space)
        moved = transport_certificate(cert, h)
        if power_certificate_failure(moved, h.codomain) is not None:
            return f"transported certificate failed for target '{format_word(cert.target)}'"
        return None

    return [
        _run("contraction-norm-monotone", cases, monotone_check, seed, TEST_SPACES),
        _run("scaling-norm-exact", cases, scaling_check, seed),
        _run("certificate-transport-verifies", cases, transport_check, seed, TEST_SPACES),
    ]


def extension_suite(seed: int, cases: int) -> list[PropertyResult]:
    def anchors_check(rng, _):
        partial = random_partial_contraction(rng)
        extended = extend_partial_contraction(partial)
        for t, v in zip(partial.points, partial.values):
            if extended.apply(t) != v:
                return f"extension disagrees with the anchors at t={t}"
        return None

    def slopes_check(rng, _):
        partial = random_partial_contraction(rng)
        extended = extend_partial_contraction(partial)
        for (x0, y0), (x1, y1) in zip(extended.breakpoints, extended.breakpoints[1:]):
            if abs(y1 - y0) > x1 - x0:
                return f"segment slope above 1 between {x0} and {x1}"
        if not check_contraction(extended):
            return "extension failed the contraction check"
        return None

    def pair_check(rng, _):
        partial = random_partial_contraction(rng)
        extended = extend_partial_contraction(partial)
        s = random_rational(rng, max_den=24)
        t = random_rational(rng, max_den=24)
        if abs(extended.apply(s) - extended.apply(t)) > abs(s - t):
            return f"Lipschitz bound broke between {s} and {t}"
        return None

    return [
        _run("partial-extension-agrees-on-anchors", cases, anchors_check, seed),
        _run("partial-extension-slopes-bounded", cases, slopes_check, seed),
        _run("partial-extension-lipschitz-pairs", cases, pair_check, seed),
    ]


def decompose_suite(seed: int, cases: int) -> list[PropertyResult]:
    def equivalence_check(rng, m):
        space = star_space(m)
        w = random_reduced_word(rng, space, 6)
        value = graev_norm(w, space)
        decomposition = decompose_conjugates(w, m)
        if (value < m) != (decomposition is not None):
            return f"ball test and decomposition disagree on '{format_word(w)}' (N = {value})"
        if decomposition is not None:
            if len(decomposition.factors) != value:
                return f"factor count {len(decomposition.factors)} /= N = {value} on '{format_word(w)}'"
            if conjugate_decomposition_failure(decomposition) is not None:
                return f"produced decomposition failed verification on '{format_word(w)}'"
        return None

    def product_ball_check(rng, m):
        space = star_space(m)
        w = random_conjugate_product(rng, m)
        if graev_norm(w, space) > m - 1:  # else N(w) <= m - 1 < m: w is in the radius-m ball
            return f"product of {m - 1} conjugated letters has norm above m-1: '{format_word(w)}'"
        return None

    def integral_check(rng, m):
        space = star_space(m)
        w = random_reduced_word(rng, space, 8)
        value = graev_norm(w, space)
        if value.denominator != 1 or value < 0:
            return f"star-space norm {value} is not a nonnegative integer on '{format_word(w)}'"
        return None

    return [
        _run("ball-decomposition-equivalence", cases, equivalence_check, seed, (2, 3)),
        _run("conjugate-products-stay-in-ball", cases, product_ball_check, seed, (2, 3, 4)),
        _run("star-norm-integral", cases, integral_check, seed, (2, 3)),
    ]


def rescale_suite(seed: int, cases: int) -> list[PropertyResult]:
    def rescale_check(rng, m):
        alphabet = grid_alphabet(m)
        length = rng.randint(0, 5)
        letters = [rng.choice(alphabet) for _ in range(length)]
        w = Word(tuple(letters))
        image = rescale_grid_word(m, w)
        if graev_norm(image, chain_space(m)) != m * graev_norm(w, INTERVAL):
            return f"rescale law broke for m={m} on '{format_word(w)}'"
        return None

    n_words = 2
    while n_words * (n_words - 1) // 2 < max(cases, 1):
        n_words += 1

    def agreement_check(rng, m):
        chain = chain_space(m)
        samples = []
        seen = set()
        while len(samples) < n_words:
            w = random_reduced_word(rng, chain, 4)
            if w not in seen:
                seen.add(w)
                samples.append(w)
        if not check_cross_extension(chain, star_space(m), triangular_translation(m), samples):
            return f"cross-basis agreement failed at rank {m}"
        return None

    rescale = _run("grid-rescale-norm-law", cases, rescale_check, seed, (2, 3))
    a = _run("cross-basis-agreement", 2, agreement_check, seed, (2, 3))
    pairs = n_words * (n_words - 1) // 2  # the word pairs compared at each rank count as cases
    return [rescale, PropertyResult(a.name, a.cases * pairs, a.failures, a.counterexample)]


def pigeonhole_suite(seed: int, cases: int) -> list[PropertyResult]:
    def pigeonhole_check(rng, m):
        w = random_conjugate_product(rng, m)
        sums = [exponent_sum(w, f"e{i}") for i in range(1, m + 1)]
        if 0 not in sums:
            return f"no zero exponent sum in '{format_word(w)}' (sums {sums})"
        return None

    def fires_outcomes():
        for n in (3, 5):
            for k in range(1, n):
                w = word_power(Word((Letter("e1"), Letter("e2"))), k, "e")
                if exponent_obstruction(w, 2, n) is None:
                    yield f"no obstruction for (e1 e2)^{k} with n={n}"
                else:
                    yield None

    def silent_check(rng, m):
        n = rng.choice((3, 5))
        w = random_conjugate_product(rng, m)
        for _ in range(rng.randint(0, 2)):
            x = random_reduced_word(rng, star_space(m), 3)
            w = concat(w, word_power(x, n, "e"), "e")
        if exponent_obstruction(w, m, n) is not None:
            return f"obstruction fired on a reducible word '{format_word(w)}'"
        return None

    return [
        _run("conjugate-product-pigeonhole", cases, pigeonhole_check, seed, (2, 3, 4, 5)),
        _tally("obstruction-fires-on-skew-powers", fires_outcomes()),
        _run("obstruction-silent-on-reducible-words", cases, silent_check, seed, (2, 3, 4)),
    ]


SELECTIONS: dict[str, Callable[[int, int], list[PropertyResult]]] = {
    "words": words_suite,
    "spaces": spaces_suite,
    "sigma": lambda seed, cases: sigma_suite(),
    "oracle": oracle_suite,
    "norm": norm_suite,
    "contraction": contraction_suite,
    "extension": extension_suite,
    "decompose": decompose_suite,
    "rescale": rescale_suite,
    "pigeonhole": pigeonhole_suite,
}


def run_suite(select: str = "all", seed: int = 0, cases: int = 100) -> list[PropertyResult]:
    if cases < 0:
        raise ValueError(f"the case count must be non-negative, got {cases}")
    if select == "all":
        names = list(SELECTIONS)
    elif select in SELECTIONS:
        names = [select]
    else:
        known = ", ".join(["all"] + list(SELECTIONS))
        raise ValueError(f"unknown suite selection {select!r} (choose from {known})")
    results: list[PropertyResult] = []
    for name in names:
        results.extend(SELECTIONS[name](seed, cases))
    return results
