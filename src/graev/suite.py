"""Seeded property suites over every part of the library.

Each ``*_suite(seed, cases)`` returns its properties as a list of
zero-argument calls.  A call runs a stream of outcomes, ``None`` for a case
that holds and a counterexample for one that fails, and ``_tally`` counts
them.  ``_run`` makes the call for a random property: case i calls its check
with the property's own generator, seeded by (seed, name), and
``cycle[i % len(cycle)]``, the space or star rank the case is about (``None``
if the check needs neither), so a (seed, cases) pair pins the whole run byte
for byte.  The exhaustive properties stream a fixed list of cases whatever the
case count.  A call makes its generator and its stream anew, so calling it
again gives the same result: the pass/fail counts and first counterexample.

``run_suite`` builds the run's list once and shares it among up to
``SUITE_WORKERS_MAX`` processes, one per core: it forks the others, and each
process calls only the properties it claims (``_take``).  The children send
back their results, so a run gives the results of one process, which is what
a run that cannot fork, or in which anything fails, gives instead.
"""

from __future__ import annotations

import marshal
import os
import random
import sys
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, NoReturn, Optional, Sequence

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
    AFFINE,
    TABLE,
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
    is_sigma,
    noncrossing_involutions,
    norm_bruteforce,
    norm_dp,
)
from .rationals import clip
from .spaces import INTERVAL, FiniteSpace, Space, chain_space, star_space
from .words import (
    Letter,
    Word,
    concat,
    conjugate,
    cyclic_shift,
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


Property = Callable[[], PropertyResult]


def _tally(name: str, outcomes: Iterable[Optional[str]]) -> PropertyResult:
    """Count the outcomes and the failures (non-None) among them; keep the
    first failure."""
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
         cycle: Sequence[Any] = (None,)) -> Property:
    def run() -> PropertyResult:
        rng = random.Random(f"{seed}:{name}")
        return _tally(name, (check(rng, cycle[i % len(cycle)]) for i in range(total)))

    return run


# random generators


def random_rational(rng: random.Random, max_den: int = 10, allow_zero: bool = True) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(0 if allow_zero else 1, den)
    return Fraction(num, den)


def random_letter(rng: random.Random, space: Space, base_prob: float = 0.0) -> Letter:
    """A letter of random sign: the base point with probability ``base_prob``
    (drawn first, and only when it is nonzero), else a generator, which on
    the interval is a point of (0, 1]."""
    base = base_prob and rng.random() < base_prob
    sign = rng.choice((1, -1))
    if base:
        return Letter(space.base, sign)
    if isinstance(space, FiniteSpace):
        return Letter(rng.choice(space.generators), sign)
    return Letter(random_rational(rng, allow_zero=False), sign)


def random_any_word(rng: random.Random, space: Space, max_len: int, base_prob: float = 0.1) -> Word:
    n = rng.randint(0, max_len)
    return Word(tuple(random_letter(rng, space, base_prob) for _ in range(n)))


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
        y = random_letter(rng, space, base_prob=0.15)
        pos = rng.randint(0, len(letters))
        letters[pos:pos] = [y, y.inverse()]
    return Word(tuple(letters))


_ZERO, _ONE = Fraction(0), Fraction(1)


def random_partial_contraction(rng: random.Random) -> PartialContraction:
    count = rng.randint(1, 6)
    pts = {_ZERO}
    while len(pts) < count:
        pts.add(random_rational(rng, max_den=12))
    ordered = sorted(pts)
    values = [_ZERO]
    for prev, cur in zip(ordered, ordered[1:]):
        den = rng.randint(1, 6)
        slope = Fraction(rng.randint(-den, den), den)
        nxt = values[-1] + slope * (cur - prev)
        values.append(min(_ONE, max(_ZERO, nxt)))
    return PartialContraction(tuple(ordered), tuple(values))


def random_contraction(rng: random.Random, space: Space) -> PointMap:
    """A random self-map of ``space``; over a star space or the interval it is a contraction."""
    if isinstance(space, FiniteSpace):
        table = {space.base: space.base}
        for g in space.generators:
            table[g] = rng.choice(space.points)
        return PointMap(space, space, TABLE, table=table)
    if rng.random() < 0.4:
        return PointMap(INTERVAL, INTERVAL, AFFINE, scale=random_rational(rng, max_den=8))
    return extend_partial_contraction(random_partial_contraction(rng))


def random_conjugate_product(rng: random.Random, m: int) -> Word:
    """A product of exactly m-1 conjugated letters (letters may be the identity)."""
    space = star_space(m)
    product = Word(())
    for _ in range(m - 1):
        g = random_reduced_word(rng, space, 3)
        a = random_letter(rng, space, base_prob=0.15)
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


def words_suite(seed: int, cases: int) -> list[Property]:
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
    """d~ between every two of ``letters``, from one call of the space's
    ``integer_costs`` over them and their inverses: (table, scale),
    ``table[s][t]`` being d~(x_s, x_t) times the scale."""
    k = len(letters)
    _, pair, scale = space.integer_costs([*letters, *(x.inverse() for x in letters)])
    return [row[k:] for row in pair[:k]], scale


def _tilde_axioms(letters: Sequence[Letter], space: Space) -> Iterator[Optional[str]]:
    """One outcome per ordered pair (a, b) of ``letters``: d~(a, b) is
    nonnegative, zero exactly when a and b are the same group element,
    equal to d~(b, a) and at most d~(a, u) + d~(u, b) for every letter u."""
    d, _ = _tilde_table(letters, space)
    for s, a in enumerate(letters):
        for t, b in enumerate(letters):
            dab = d[s][t]
            same = a.point == b.point and (a.sign == b.sign or a.point == space.base)
            ok = dab >= 0 and (dab == 0) == same and dab == d[t][s]
            if ok and all(dab <= d[s][u] + d[u][t] for u in range(len(letters))):
                yield None
            else:
                yield f"axiom broke at ({format_word(Word((a,)))}, {format_word(Word((b,)))})"


def spaces_suite(seed: int, cases: int) -> list[Property]:
    def finite_outcomes():
        for space in (star_space(2), star_space(3), chain_space(3)):
            yield from _tilde_axioms(signed_alphabet(space.points), space)

    def interval_check(rng, _):
        letters = [random_letter(rng, INTERVAL, base_prob=0.25) for _ in range(3)]
        return next(filter(None, _tilde_axioms(letters, INTERVAL)), None)

    def sign_rules_check(rng, space):
        a = random_letter(rng, space, base_prob=0.25)
        b = random_letter(rng, space, base_prob=0.25)
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
        lambda: _tally("tilde-dist-axioms-finite-exhaustive", finite_outcomes()),
        _run("tilde-dist-axioms-interval-random", cases, interval_check, seed),
        _run("tilde-dist-sign-rules", cases, sign_rules_check, seed, TEST_SPACES),
    ]


def sigma_suite() -> list[Property]:
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
        lambda: _tally("sigma-motzkin-counts", map(count_outcome, ks)),
        lambda: _tally("sigma-structural-equality", map(structural_outcome, ks)),
    ]


def oracle_suite(seed: int, cases: int) -> list[Property]:
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
        fix, pair, scale = space.integer_costs(w.letters)
        paid = sum(pair[i - 1][j - 1] for i, j in matching.pairs()) + sum(fix[i - 1] for i in matching.fixed())
        recomputed = Fraction(paid, scale)
        if recomputed != value:
            return f"matching cost {recomputed} /= value {value} on '{format_word(w)}'"
        return None

    return [
        _run("oracle-dp-equals-bruteforce", cases, agree_check, seed, TEST_SPACES),
        _run("oracle-matching-consistent", cases, matching_check, seed, TEST_SPACES),
    ]


def norm_suite(seed: int, cases: int) -> list[Property]:
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
        x = random_letter(rng, space, base_prob=0.25)
        y = random_letter(rng, space, base_prob=0.25)
        u, v = Word((Letter(x.point),)), Word((Letter(y.point),))
        if graev_metric(u, v, space) != space.dist(x.point, y.point):
            return f"metric does not extend d at ({x.point}, {y.point})"
        return None

    def upper_bound_check(rng, space):
        w = random_any_word(rng, space, 8)
        fix, _, scale = space.integer_costs(w.letters)
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


def contraction_suite(seed: int, cases: int) -> list[Property]:
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


def extension_suite(seed: int, cases: int) -> list[Property]:
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


def decompose_suite(seed: int, cases: int) -> list[Property]:
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


def rescale_suite(seed: int, cases: int) -> list[Property]:
    def rescale_check(rng, m):
        alphabet = signed_alphabet([Fraction(j, m) for j in range(1, m + 1)])
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
        if not check_cross_extension(triangular_translation(m), samples):
            return f"cross-basis agreement failed at rank {m}"
        return None

    def agreement():
        a = _run("cross-basis-agreement", 2, agreement_check, seed, (2, 3))()
        pairs = n_words * (n_words - 1) // 2  # the word pairs compared at each rank count as cases
        return PropertyResult(a.name, a.cases * pairs, a.failures, a.counterexample)

    return [_run("grid-rescale-norm-law", cases, rescale_check, seed, (2, 3)), agreement]


def pigeonhole_suite(seed: int, cases: int) -> list[Property]:
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
        lambda: _tally("obstruction-fires-on-skew-powers", fires_outcomes()),
        _run("obstruction-silent-on-reducible-words", cases, silent_check, seed, (2, 3, 4)),
    ]


SELECTIONS: dict[str, Callable[[int, int], list[Property]]] = {
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


# A run forks only at SUITE_FORK_CASES_MIN cases per property or more: on 2
# cores, "all" runs read 2.9/4.5 ms inline/forked at 1 case, 6.7/7.4 at 3,
# 7.9/7.5 at 4 and 11.2/9.9 at 6 (medians of 120 alternations).  At most
# SUITE_WORKERS_MAX processes: children fork one after another and the longest
# property is ~10% of an "all" run, so more would not pay (2 cores measured).
SUITE_FORK_CASES_MIN = 4
SUITE_WORKERS_MAX = 4
# an "all" run takes ~2 ms a case in one process: 19.3 s at 10 000 cases, 11.0 s on 2 cores
SUITE_CASES_MAX = 10_000


def _workers(cases: int) -> int:
    """The processes a run of ``cases`` cases per property uses: one per core,
    up to ``SUITE_WORKERS_MAX``, or one where forking cannot pay or is unsafe."""
    if cases < SUITE_FORK_CASES_MIN or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    threading = sys.modules.get("threading")  # no thread runs unless it is loaded
    if threading is not None and threading.active_count() > 1:
        return 1  # a child would inherit any lock another thread holds, never to be released
    return min(len(os.sched_getaffinity(0)), SUITE_WORKERS_MAX)


def _claim(counter: tuple[int, int]) -> int:
    """The index of the first property no process has taken, now taken by
    the caller.  The ``counter`` pipe holds that index as one 8-byte message:
    a process reads it, so the others wait, and writes it back one higher."""
    read, write = counter
    index = int.from_bytes(os.read(read, 8), "little")
    os.write(write, (index + 1).to_bytes(8, "little"))
    return index


def _take(properties: Sequence[Property], counter: tuple[int, int]) -> list[tuple]:
    """Call each property this process claims, until none is left: the
    (index, name, cases, failures, counterexample) of each."""
    taken = []
    while (index := _claim(counter)) < len(properties):
        result = properties[index]()
        taken.append((index, result.name, result.cases, result.failures, result.counterexample))
    return taken


def _serve(properties: Sequence[Property], counter: tuple[int, int], out: int) -> NoReturn:
    """A forked child's whole life: write what ``_take`` returns to ``out``.
    It leaves through ``os._exit`` on every path, so it runs no exit handler
    and flushes no buffer it inherited."""
    import signal

    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
        payload = marshal.dumps(_take(properties, counter))
        with open(out, "wb") as handle:
            handle.write(payload)
        status = 0
    finally:
        os._exit(status)


def _forked(properties: Sequence[Property], workers: int) -> list[PropertyResult]:
    """The results of ``properties``, called by this process and ``workers - 1``
    forked children.  A child that fails sends back nothing or a cut payload,
    which ``marshal`` refuses; a property run twice or never is refused too.
    Any failure raises, once every child is killed and reaped."""
    import signal

    counter = os.pipe()
    children: dict[int, int] = {}  # pid: read end of its result pipe
    try:
        os.write(counter[1], bytes(8))
        for _ in range(workers - 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    os.close(read)
                    _serve(properties, counter, write)
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            children[pid] = read
        taken = _take(properties, counter)
        for read in children.values():
            with open(read, "rb", closefd=False) as handle:
                taken += marshal.loads(handle.read())
        if sorted(index for index, *_ in taken) != list(range(len(properties))):
            raise ChildProcessError("the suite workers did not run every property once")
        # one name string per property, as in one process, not a copy per result a caller keeps
        return [PropertyResult(sys.intern(name), *counts) for _, name, *counts in sorted(taken)]
    finally:
        for fd in counter:
            os.close(fd)
        for pid, read in children.items():
            os.close(read)
            os.kill(pid, signal.SIGKILL)  # one that sent its results back is exiting anyway
            os.waitpid(pid, 0)


def run_suite(select: str = "all", seed: int = 0, cases: int = 100) -> list[PropertyResult]:
    """The results of the ``select`` suites' properties, in order, at
    ``cases`` cases each; run on every core when ``_workers`` allows, with
    the results of a single-process run."""
    if cases < 0:
        raise ValueError(f"the case count must be non-negative, got {cases}")
    if cases > SUITE_CASES_MAX:
        raise ValueError(f"the case count {clip(str(cases))} is above the limit of {SUITE_CASES_MAX}")
    if select == "all":
        names = list(SELECTIONS)
    elif select in SELECTIONS:
        names = [select]
    else:
        known = ", ".join(["all"] + list(SELECTIONS))
        raise ValueError(f"unknown suite selection {select!r} (choose from {known})")
    properties = [prop for name in names for prop in SELECTIONS[name](seed, cases)]
    workers = _workers(cases)
    if workers > 1:
        try:
            return _forked(properties, workers)
        except Exception:
            pass  # a raising property or a failed worker: the run below gives the caller its own result or error
    return [prop() for prop in properties]
