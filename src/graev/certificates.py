"""Norm balls, conjugate decompositions, and power-subgroup certificates.

Membership of a word in the subgroup generated by n-th powers of a norm
ball is witnessed, never decided: a certificate lists base words of norm
below the radius whose n-th powers multiply to the target, and verification
re-checks that.  Non-membership is only ever shown by the exponent-sum
obstruction (``exponent_obstruction``), which rules out products of few
conjugated letters with n-th powers.  The bounded search multiplies words
coded as tuples of indices into a signed alphabet, skips a certificate whose
powers pass ``POWER_LETTERS_MAX``, and returns a verified one or unknown.

Conjugate decompositions realise words of small norm over the star space as
short products of conjugated letters, with the factor count equal to the
norm; they are extracted from an optimal matching and re-verified by
multiplying out.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Optional, Sequence

from .norm import NORM_LENGTH_MAX, check_length, graev_norm, interval_fill, norm_dp
from .rationals import clip, exact, parse_rational
from .spaces import FiniteSpace, Space, json_int, json_list, json_str, star_space
from .values import Value
from .words import (
    Letter,
    Point,
    Word,
    concat,
    format_letter,
    format_word,
    free_reduce,
    invert_word,
    parse_word,
    signed_alphabet,
)

if TYPE_CHECKING:
    from .maps import PointMap


# x^n has n * |x| letters: verifying a 256-letter base at n = 999 took 1.0 s
# and 30 MB on a 2-core VM, and a far larger n exhausts memory
POWER_EXPONENT_MAX = 999

# nonempty reduced words a search may enumerate as candidate bases, since it
# holds every word of one length at once: chain4 at length 7 (1 098 056
# words) took 18 s and 178 MB peak RSS on a 2-core VM
SEARCH_WORDS_MAX = 1_200_000

# letters of a power certificate's product before reduction, n times the
# bases' summed lengths, since verifying holds them all at once: four 256-letter
# star3 bases at n = 999 (1 022 976 letters) took 0.43 s and 65 MB on a 2-core VM.
# A search meets it also for the powers of all its candidates, which it holds
# at once: star3 at length 4 and n = 297 (1 044 252 letters) took 0.36 s and 30 MB
POWER_LETTERS_MAX = 1 << 20


def _check_odd_exponent(n: int) -> None:
    if n < 3 or n % 2 == 0 or n > POWER_EXPONENT_MAX:
        raise ValueError(
            f"the power exponent must be an odd integer from 3 to {POWER_EXPONENT_MAX}, got {clip(str(n))}"
        )


class ConjugateDecomposition(Value):
    """target = product of g_i a_i g_i^-1 with at most m-1 single-letter a_i."""

    __slots__ = _fields = ("m", "target", "factors")

    def __init__(self, m: int, target: Word, factors: tuple[tuple[Word, Letter], ...]) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "factors", factors)


def decompose_conjugates(w: Word, m: int) -> Optional[ConjugateDecomposition]:
    """Write ``w`` as a product of norm(w) conjugated letters, if norm(w) < m.

    Over the star space a pair costs 0 if its letters cancel, else 2, no
    less than leaving both letters unmatched, so on a reduced word every
    pair ``norm_dp`` keeps cancels.  Pulling out the unmatched letters
    a_1..a_r leaves segments between them that multiply to the identity.
    The conjugator g_j is the prefix up to the j-th unmatched position with
    the earlier unmatched letters removed.  Returns None when norm(w) >= m.
    """
    space = star_space(m)
    for letter in w:
        if not space.contains(letter.point):
            raise ValueError(f"letter point {letter.point!r} is not in the rank-{m} star space")
    w = free_reduce(w, space.base)
    value, matching = norm_dp(w, space)
    if value >= m:
        return None

    unmatched = matching.fixed()
    if len(unmatched) != value:
        raise RuntimeError(
            f"star-space norm {value} is not the {len(unmatched)} unmatched letters"
        )

    factors = []
    for pos in unmatched:
        prefix = [w[t - 1] for t in range(1, pos) if matching.map[t - 1] != t]
        g = free_reduce(Word(tuple(prefix)), space.base)
        factors.append((g, w[pos - 1]))
    return ConjugateDecomposition(m=m, target=w, factors=tuple(factors))


def conjugate_decomposition_failure(d: ConjugateDecomposition) -> Optional[str]:
    """None when the decomposition checks out, else the reason it does not."""
    if d.m < 1:
        return f"m must be at least 1, got {d.m}"
    if len(d.factors) > d.m - 1:
        return f"factor count {len(d.factors)} exceeds m - 1 = {d.m - 1}"
    space = star_space(d.m)
    for letter in d.target:
        if not space.contains(letter.point):
            return f"target letter {format_letter(letter)} is outside the alphabet"
    letters: list[Letter] = []
    for g, a in d.factors:
        for letter in g:
            if not space.contains(letter.point):
                return f"conjugator letter {format_letter(letter)} is outside the alphabet"
        if not space.contains(a.point):
            return f"factor letter {format_letter(a)} is outside the alphabet"
        letters += g.letters + (a,) + invert_word(g).letters
    # one reduction of every g a g^-1 in turn, linear in the file's size
    product = free_reduce(Word(tuple(letters)), space.base)
    if product != free_reduce(d.target, space.base):
        return _mismatch("factors", product, free_reduce(d.target, space.base))
    return None


def _mismatch(what: str, product: Word, target: Word) -> str:
    # each word clipped to the width of an error line, so a long product
    # still makes one short FAIL line
    return (
        f"product mismatch: {what} multiply to '{clip(format_word(product), 160)}', "
        f"target reduces to '{clip(format_word(target), 160)}'"
    )


class PowerCertificate(Value):
    """target = x_1^n ... x_k^n with every norm(x_i) < c, where c is an int
    or a ``Fraction``, stored as a ``Fraction``."""

    __slots__ = _fields = ("n", "c", "target", "bases")

    def __init__(self, n: int, c: Fraction, target: Word, bases: tuple[Word, ...]) -> None:
        _check_odd_exponent(n)
        letters = n * sum(map(len, bases))
        if letters > POWER_LETTERS_MAX:
            raise ValueError(f"the powers have {letters} letters, above the limit of {POWER_LETTERS_MAX}")
        c = exact(c)
        if c <= 0:
            raise ValueError(f"the radius must be positive, got {c}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "bases", bases)


def word_power(w: Word, n: int, base: Point) -> Word:
    return free_reduce(Word(w.letters * n), base)


def power_certificate_failure(p: PowerCertificate, space: Space) -> Optional[str]:
    """None when the certificate verifies, else the reason it does not."""
    for idx, x in enumerate(p.bases, 1):
        value = graev_norm(x, space)
        if value >= p.c:
            return f"N(base {idx}) = {value} >= c = {p.c}"
    product = concat(Word(()), Word(tuple(chain.from_iterable(x.letters * p.n for x in p.bases))), space.base)
    target = free_reduce(p.target, space.base)
    if product != target:
        return _mismatch("powers", product, target)
    return None


def transport_certificate(p: PowerCertificate, h: PointMap) -> PowerCertificate:
    """Push a certificate forward along a contraction.

    Every ``PointMap`` fixes the base point by construction, so the image
    homomorphism of a contraction sends each base word to a word of no
    larger norm, and the transported certificate verifies over the codomain.
    """
    from .maps import check_contraction, extend_endomorphism  # here, so importing certificates skips maps

    if not check_contraction(h):
        raise ValueError("the map is not a contraction")
    failure = power_certificate_failure(p, h.domain)
    if failure is not None:
        raise ValueError(f"certificate does not verify: {failure}")
    return PowerCertificate(
        n=p.n,
        c=p.c,
        target=extend_endomorphism(h, p.target),
        bases=tuple(extend_endomorphism(h, x) for x in p.bases),
    )


def _invert(state: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x ^ 1 for x in reversed(state))


def _candidate_word_count(letters: int, max_length: int) -> int:
    """The nonempty reduced words of at most ``max_length`` letters over a
    signed alphabet of a = ``letters`` letters, a (a - 1)^(l - 1) of each
    length l, summed until the sum passes ``SEARCH_WORDS_MAX``."""
    total, words = 0, letters
    for _ in range(max_length):
        total += words
        if total > SEARCH_WORDS_MAX:
            break
        words *= letters - 1
    return total


def _candidate_bases(
    alphabet: Sequence[Letter], c: Fraction, max_base_length: int, space: Space
) -> list[tuple[int, ...]]:
    """The nonempty reduced words over a ``signed_alphabet`` with norm < c,
    as tuples of its indices (i ^ 1 indexes the inverse of letter i), in
    canonical order.  Each norm fills the rows and columns of the one
    ``integer_costs`` table of the alphabet and is compared with c times its
    scale; N(w^-1) = N(w), so each inverse pair is normed once."""
    fix, pair, scale = space.integer_costs(alphabet)
    limit = c.numerator * scale  # value / scale < c, in integers
    pending: dict[tuple[int, ...], int] = {}
    out = []
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_base_length):
        frontier = [
            key + (x,) for key in frontier for x in range(len(alphabet)) if not key or key[-1] != x ^ 1
        ]
        for key in frontier:
            value = pending.pop(_invert(key), None)
            if value is None:
                costs = [[pair[x][y] for y in key] for x in key]
                value = pending[key] = interval_fill([fix[x] for x in key], costs)[0]
            if value * c.denominator < limit:
                out.append(key)
    return out


def search_power_certificate(
    w: Word,
    c: Fraction,
    n: int,
    max_factors: int,
    max_base_length: int,
    space: Space,
) -> Optional[PowerCertificate]:
    """Breadth-first search for a power certificate within the budget.

    Candidate bases are the reduced words of bounded length and norm < c
    over the space's generators (over the interval: the points of ``w``
    before reduction), in the canonical order of ``enumerate_reduced_words``.
    Level k multiplies each new state of level k-1, in the order found, by
    the n-th power of each candidate in turn.  Returns, after verifying it,
    the first certificate in that breadth-first order whose powers have at
    most ``POWER_LETTERS_MAX`` letters (one over it is skipped), or None,
    which means unknown within budget, never non-membership.

    A state is a reduced word as a tuple of indices into the signed
    alphabet, where i ^ 1 is the inverse of i, so a product only cancels at
    the junction and the seen set hashes plain tuples.  The last factor is
    looked up, not multiplied: n-th roots in a free group are unique, so a
    state s reaches the target with at most one candidate, the one whose
    power is s^-1 * target; only levels below ``max_factors`` are stored.

    Before the first level, a budget is refused that enumerates more than
    ``SEARCH_WORDS_MAX`` candidate words, norms a candidate of more than
    ``NORM_LENGTH_MAX`` letters, or builds candidate powers of more than
    ``POWER_LETTERS_MAX`` letters in all; the stored states have no bound.
    """
    _check_odd_exponent(n)
    if c <= 0:
        raise ValueError(f"the radius must be positive, got {c}")
    if max_factors < 0 or max_base_length < 0:
        raise ValueError(
            f"search budgets must be non-negative, got {max_factors} factors "
            f"and base length {max_base_length}"
        )
    target = free_reduce(w, space.base)
    if len(target) == 0:
        return PowerCertificate(n=n, c=c, target=target, bases=())

    points = space.generators if isinstance(space, FiniteSpace) else sorted({x.point for x in w} - {space.base})
    alphabet = signed_alphabet(points)
    index = {(x.point, x.sign): i for i, x in enumerate(alphabet)}
    goal = tuple(index.get((x.point, x.sign)) for x in target)
    if None in goal:
        return None  # products of candidate powers never leave the alphabet
    if _candidate_word_count(len(alphabet), max_base_length) > SEARCH_WORDS_MAX:
        raise ValueError(
            f"base length {clip(str(max_base_length))} over {len(alphabet)} signed letters is above "
            f"the limit of {SEARCH_WORDS_MAX} candidate words"
        )
    if max_base_length > NORM_LENGTH_MAX:  # each candidate is normed
        raise ValueError(f"base length {max_base_length} is above the limit of {NORM_LENGTH_MAX} letters")
    keys = _candidate_bases(alphabet, c, max_base_length, space)
    candidates = [Word(tuple(alphabet[x] for x in key)) for key in keys]
    letters = n * sum(map(len, candidates))
    if letters > POWER_LETTERS_MAX:
        raise ValueError(f"the candidate powers have {letters} letters, above the limit of {POWER_LETTERS_MAX}")
    powers = []
    root: dict[tuple[int, ...], int] = {}
    for j, base in enumerate(candidates):
        power = tuple(index[x.point, x.sign] for x in word_power(base, n, space.base))
        if root.setdefault(power, j) != j:
            raise RuntimeError(
                f"candidates '{format_word(candidates[root[power]])}' and "
                f"'{format_word(base)}' have the same power (exponent {n})"
            )
        powers.append((power, tuple(x ^ 1 for x in power)))

    frontier: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}
    seen = {()}
    for level in range(1, max_factors + 1):
        for state, used in frontier.items():
            # s^-1 * goal: only the common prefix of s and goal cancels
            i, most = 0, min(len(state), len(goal))
            while i < most and state[i] == goal[i]:
                i += 1
            j = root.get(_invert(state[i:]) + goal[i:])
            if j is not None:
                bases = tuple(candidates[x] for x in used + (j,))
                if n * sum(map(len, bases)) > POWER_LETTERS_MAX:
                    continue  # over the limit: skipped, and the search goes on
                found = PowerCertificate(n=n, c=c, target=target, bases=bases)
                failure = power_certificate_failure(found, space)
                if failure is not None:
                    raise RuntimeError(f"the search found a certificate that fails: {failure}")
                return found
        if level == max_factors:
            break
        nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
        for state, used in frontier.items():
            k = len(state)
            for j, (power, inverses) in enumerate(powers):
                # both sides are reduced, so letters cancel only at the junction
                i, most = 0, min(k, len(power))
                while i < most and state[k - 1 - i] == inverses[i]:
                    i += 1
                reached = state[: k - i] + power[i:]
                if reached not in seen:
                    seen.add(reached)
                    nxt[reached] = used + (j,)
        frontier = nxt
        if not frontier:
            break
    return None


def exponent_sum(w: Word, generator: Point) -> int:
    """Sum of the signs of the occurrences of one generator (a homomorphism
    to the integers)."""
    return sum(letter.sign for letter in w if letter.point == generator)


def exponent_obstruction(w: Word, m: int, n: int) -> Optional[str]:
    """The text that every exponent sum of ``w`` is nonzero mod n, else None.

    Any product of at most m-1 conjugated letters and arbitrary n-th powers
    leaves some generator's exponent sum at 0 mod n (pigeonhole: m-1
    letters cannot touch all m generators, and powers contribute multiples
    of n), so a word with such a text is not of that form.
    """
    _check_odd_exponent(n)
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    space = star_space(m)
    for letter in w:
        if not space.contains(letter.point):
            raise ValueError(f"letter point {letter.point!r} is not among e1..e{m}")
    sums = [exponent_sum(w, g) for g in space.generators]
    if all(s % n != 0 for s in sums):
        inner = ", ".join(f"f_{g} = {s}" for g, s in zip(space.generators, sums))
        return f"exponent sums ({inner}) are all nonzero mod {n}"
    return None


def decomposition_to_json(d: ConjugateDecomposition) -> dict:
    return {
        "m": d.m,
        "target": format_word(d.target),
        "factors": [{"g": format_word(g), "a": format_letter(a)} for g, a in d.factors],
    }


def decomposition_from_json(data: dict) -> ConjugateDecomposition:
    m = json_int(data, "certificate", "m")
    space = star_space(m)
    target = parse_word(json_str(data, "certificate", "target"), space)
    factors = []
    for entry in json_list(data, "certificate", "factors", dict, "objects"):
        g = parse_word(json_str(entry, "certificate", "g"), space)
        a_word = parse_word(json_str(entry, "certificate", "a"), space)
        if len(a_word) != 1:
            raise ValueError(f"factor letter {entry['a']!r} must be a single letter")
        factors.append((g, a_word[0]))
    return ConjugateDecomposition(m=m, target=target, factors=tuple(factors))


def power_certificate_to_json(p: PowerCertificate) -> dict:
    return {
        "n": p.n,
        "c": str(p.c),
        "target": format_word(p.target),
        "bases": [format_word(x) for x in p.bases],
    }


def power_certificate_from_json(data: dict, space: Space) -> PowerCertificate:
    """Decode a power certificate; a base of more than ``NORM_LENGTH_MAX``
    letters is rejected before anything is normed."""
    bases = json_list(data, "certificate", "bases", str, "strings")
    for idx, x in enumerate(bases, 1):
        check_length(f"base {idx}", x)
    return PowerCertificate(
        n=json_int(data, "certificate", "n"),
        c=parse_rational(json_str(data, "certificate", "c")),
        target=parse_word(json_str(data, "certificate", "target"), space),
        bases=tuple(parse_word(x, space) for x in bases),
    )
