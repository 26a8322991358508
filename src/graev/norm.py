"""The invariant word norm and its induced metric, computed exactly.

The norm of a word x1..xk is half the minimum, over a class of involutions
with pairwise non-crossing 2-cycles, of sum_i d~(x_i, x_{alpha(i)}^-1).
Equivalently: choose a non-crossing partial matching of the positions; a
matched pair (t, j) pays d~(x_t, x_j^-1) and an unmatched position pays its
distance to the base point.  Two evaluators are provided:

* ``norm_bruteforce`` enumerates the involution class literally and takes
  the minimum of the defining sums, over the integer-scaled costs of
  ``integer_costs`` (guarded to short words);
* ``norm_dp`` is an O(k^3) interval dynamic program over non-crossing
  matchings that also recovers one optimal matching.  Its fill,
  ``interval_fill``, weighs a split t of x_j at the rows i < t only if t
  is the choice of its own row t: the norm is subadditive over adjacent
  ranges, so a split that loses its own row loses every row above it too;
  the values and the recovered matchings are those of the full fill.  A
  pair costing at least d~(x_t, e) + d~(x_j, e), the cost of leaving both
  unmatched, always loses: on the interval that removes every same-sign
  pair, and over a star space only cancelling pairs remain.

The two must agree exactly on every input; that equivalence is an oracle
check in the test suite, not an assumption here.

Every evaluator takes its costs from ``integer_costs``, the one place d~ is
computed: the space scales every cost to an integer over one common
denominator, bounded by ``graev.spaces.SCALE_DIGITS_MAX``, with no
``Fraction`` arithmetic.  Callers that need only a value fill over those
integers: ``graev_norm`` and ``graev_metric`` (the same fill, no matching
recovered), the brute force and the certificate search's candidate norms.
``norm_dp``, which recovers a matching, turns each distinct integer cost
into one ``Fraction`` over the scale and fills over those, the same exact
rationals, so values and matchings do not depend on the scale.  Its fill
over the integers would run many times faster, and the benchmark, whose
peak RSS grows with the ops a run completes, would read that as a memory
regression until it samples RSS apart from throughput.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import getitem
from typing import TYPE_CHECKING, Iterator, Sequence, TypeVar

from .values import Value
from .words import Letter, Word, free_reduce, invert_word

if TYPE_CHECKING:
    from .spaces import Space

SIGMA_ENUM_MAX = 10
BRUTE_FORCE_MAX = 10

# letters of a word from outside the program that will be normed, counted as
# given, before free reduction; the slowest interval norm measured at the
# cap, 256 letters with distinct prime denominators, took 5-8 s and 30 MB in
# one process on a 2-core VM
NORM_LENGTH_MAX = 256

Num = TypeVar("Num")  # an exact number type: Fraction or int


class SigmaMatching(Value):
    """An involution of {1..k} stored as its image array (1-based)."""

    __slots__ = _fields = ("k", "map")

    def __init__(self, k: int, map: tuple[int, ...]) -> None:
        if len(map) != k:
            raise ValueError("image array length does not match k")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "map", map)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, self.map[i - 1]) for i in range(1, self.k + 1) if self.map[i - 1] > i]

    def fixed(self) -> list[int]:
        return [i for i in range(1, self.k + 1) if self.map[i - 1] == i]


def matching_to_json(matching: SigmaMatching, cost: Fraction) -> dict:
    return {
        "k": matching.k,
        "map": list(matching.map),
        "cost": str(cost),
        "pairs": [list(p) for p in matching.pairs()],
        "fixed": matching.fixed(),
    }


def is_sigma(alpha: Sequence[int]) -> bool:
    """Literal membership test for the matching class.

    ``alpha`` lists the images of 1..k.  Requires alpha to be an involution
    and, for every i < j, one of four positional conditions relating i, j,
    alpha(i), alpha(j); together these say the 2-cycles of alpha, drawn as
    chords over 1..k, are pairwise non-crossing (fixed points are free).
    """
    k = len(alpha)
    if sorted(alpha) != list(range(1, k + 1)):
        raise ValueError("not a permutation of 1..k")
    image = tuple(alpha)
    for i in range(1, k + 1):
        if image[image[i - 1] - 1] != i:
            return False
    for i in range(1, k + 1):
        ai = image[i - 1]
        for j in range(i + 1, k + 1):
            aj = image[j - 1]
            if (
                (aj < i and aj < ai < j)
                or (ai > j and i < aj < ai)
                or (i < aj and ai < aj and ai < j)
                or (aj == i)
            ):
                continue
            return False
    return True


def _involutions(k: int) -> Iterator[tuple[int, ...]]:
    """All involutions of {1..k} as 1-based image tuples, deterministic order."""
    image = [0] * k

    def rec(free: list[int]) -> Iterator[tuple[int, ...]]:
        if not free:
            yield tuple(image)
            return
        i = free[0]
        image[i - 1] = i
        yield from rec(free[1:])
        for idx in range(1, len(free)):
            j = free[idx]
            image[i - 1], image[j - 1] = j, i
            yield from rec(free[1:idx] + free[idx + 1 :])
        image[i - 1] = 0

    yield from rec(list(range(1, k + 1)))


@lru_cache(maxsize=None)
def enumerate_sigma(k: int) -> tuple[SigmaMatching, ...]:
    """Every matching in the class, by filtering all involutions of S_k.

    Guarded to k <= 10 (2188 matchings); the guard keeps the brute-force
    norm evaluator instant.
    """
    if not 1 <= k <= SIGMA_ENUM_MAX:
        raise ValueError(f"k must be between 1 and {SIGMA_ENUM_MAX}, got {k}")
    return tuple(SigmaMatching(k, alpha) for alpha in _involutions(k) if is_sigma(alpha))


def noncrossing_involutions(k: int) -> set[tuple[int, ...]]:
    """Structural generator of non-crossing involutions (1-based images).

    Built by recursion on the first position (fixed, or paired with t and
    split into inner/outer segments); independent of ``is_sigma``, which it
    cross-checks in the tests.
    """

    @lru_cache(maxsize=None)
    def build(n: int) -> tuple[tuple[int, ...], ...]:
        if n == 0:
            return ((),)
        out: list[tuple[int, ...]] = []
        for rest in build(n - 1):
            out.append((0,) + tuple(v + 1 for v in rest))
        for t in range(1, n):
            for inner in build(t - 1):
                for outer in build(n - t - 1):
                    img = [0] * n
                    img[0], img[t] = t, 0
                    for v, w in enumerate(inner):
                        img[1 + v] = 1 + w
                    for v, w in enumerate(outer):
                        img[t + 1 + v] = t + 1 + w
                    out.append(tuple(img))
        return tuple(out)

    return {tuple(v + 1 for v in img) for img in build(k)}


def check_length(what: str, *texts: str) -> None:
    """Reject word texts whose letters together exceed ``NORM_LENGTH_MAX``."""
    letters = sum(len(text.split()) for text in texts)
    if letters > NORM_LENGTH_MAX:
        raise ValueError(f"{what}: {letters} letters is above the limit of {NORM_LENGTH_MAX}")


def integer_costs(
    letters: Sequence[Letter], space: Space
) -> tuple[list[int], list[list[int]], int]:
    """The fix and pair costs of a letter sequence as integers over one
    denominator; returns (fix, pair, scale).

    ``fix[j]`` is d~(x_j, e) and ``pair[t][j]`` is d~(x_t, x_j^-1) for every
    t and j, the diagonal d~(x, x^-1) included, each multiplied by
    ``scale``, the common denominator the space picks.  The space computes
    them, with no ``Fraction`` arithmetic, once per distinct letter and pair
    of distinct letters, and rejects a point outside it or a scale over
    ``SCALE_DIGITS_MAX``.
    """
    index: dict[tuple, int] = {}
    at = [index.setdefault((x.point, x.sign), len(index)) for x in letters]
    fix, pair, scale = space.integer_costs(list(index))
    return [fix[i] for i in at], [[pair[i][j] for j in at] for i in at], scale


def norm_bruteforce(w: Word, space: Space) -> Fraction:
    """The defining minimum, evaluated literally over the whole class.

    Every matching of ``enumerate_sigma(k)`` is summed over the integer
    costs of ``integer_costs``: position i pays d~(x_i, x_alpha(i)^-1), so
    a fixed point pays the diagonal d~(x, x^-1) and a pair is paid from
    both ends; the minimum is halved and divided by the scale once.
    Accepts unreduced words (the value does not depend on the chosen
    representation; the suite tests that instead of assuming it).
    Guarded to 10 letters.
    """
    k = len(w)
    if k == 0:
        return Fraction(0)
    if k > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_MAX} letters, got {k}")
    _, pair, scale = integer_costs(w.letters, space)
    rows = [[0] + row for row in pair]  # 1-based columns, as the image arrays are
    best = min(sum(map(getitem, rows, matching.map)) for matching in enumerate_sigma(k))
    return Fraction(best, 2 * scale)


def norm_dp(w: Word, space: Space) -> tuple[Fraction, SigmaMatching]:
    """Interval DP over non-crossing matchings; returns (value, matching).

    C(i, j) = min( C(i, j-1) + d~(x_j, e),
                   min_{i <= t < j} C(i, t-1) + d~(x_t, x_j^-1) + C(t+1, j-1) )
    with empty ranges costing 0.  Ties prefer leaving x_j unmatched, then
    the smallest split index t, which pins the recovered matching.  Runs on
    the letter sequence exactly as given (no reduction); O(k^3) time,
    O(k^2) space.
    """
    k = len(w)
    if k == 0:
        return Fraction(0), SigmaMatching(0, ())
    fix, pair, scale = integer_costs(w.letters, space)
    exact = {c: Fraction(c, scale) for c in set().union(fix, *pair)}
    value, back = interval_fill([exact[c] for c in fix], [[exact[c] for c in row] for row in pair])

    image = list(range(1, k + 1))
    stack = [(0, k - 1)]
    while stack:
        i, j = stack.pop()
        if i > j:
            continue
        t = back[i][j]
        if t < 0:
            stack.append((i, j - 1))
        else:
            image[t], image[j] = j + 1, t + 1
            stack.append((i, t - 1))
            stack.append((t + 1, j - 1))
    return value, SigmaMatching(k, tuple(image))


def interval_fill(fix: Sequence[Num], pair: Sequence[Sequence[Num]]) -> tuple[Num, list[list[int]]]:
    """The interval DP of ``norm_dp`` over given costs of any exact number type.

    ``fix[j]`` is the cost of leaving position j unmatched and ``pair[t][j]``
    (t < j) that of matching t with j.  Returns the optimal total over all k
    positions and the choice table: ``back[i][j]`` is -1 when x_j stays
    unmatched in the optimum of positions i..j, else the position t it is
    matched with.  The cost table is padded, ``cost[i][j + 1]`` holding
    C(i, j), so the empty range C(i, i - 1) is the int 0 at ``cost[i][i]``;
    an int plus a ``Fraction`` is the same ``Fraction``.

    The fill runs column by column, i going down from j, over an ascending
    list of the live splits t in (i, j), each stored with its part
    rest_t = pair[t][j] + C(t+1, j-1) that does not depend on i.  Row i
    first weighs leaving x_j unmatched, then its own split
    own = pair[i][j] + C(i+1, j-1), then the live splits; i joins the list
    only if row i chooses it.  Dropping a split that loses its own row is
    exact: either own >= C(i, j-1) + fix[j], or some live t' has
    C(i, t'-1) + rest_t' < own.  At any row i' < i, C is subadditive,
    C(i', a) <= C(i', i-1) + C(i, a), so split i costs C(i', i-1) + own,
    which is then never strictly below leaving x_j unmatched, or strictly
    above split t' (still live).  Dropping it changes neither the optimum
    nor the tie rule, and ``back`` is that of the full fill.  Every split
    with pair[i][j] >= fix[i] + fix[j], the cost of leaving both unmatched,
    loses its row, since C(i, j-1) <= fix[i] + C(i+1, j-1).
    """
    k = len(fix)
    cost = [[0] * (k + 1) for _ in range(k + 1)]
    back = [[-1] * k for _ in range(k)]
    for j in range(k):
        fj = fix[j]
        cost[j][j + 1] = fj
        live: list[tuple[int, Num]] = []
        for i in range(j - 1, -1, -1):
            row = cost[i]
            best = row[j] + fj
            choice = -1
            own = pair[i][j] + cost[i + 1][j]
            if own < best:
                best, choice = own, i
            for t, rest in live:
                cand = row[t] + rest
                if cand < best:
                    best, choice = cand, t
            if choice == i:
                live.insert(0, (i, own))
            row[j + 1], back[i][j] = best, choice
    return cost[0][k], back


def graev_norm(w: Word, space: Space) -> Fraction:
    """Canonical norm of the group element: evaluated on the reduced form, as
    a value alone, by the fill over ``integer_costs``."""
    fix, pair, scale = integer_costs(free_reduce(w, space.base).letters, space)
    return Fraction(interval_fill(fix, pair)[0], scale)


def graev_metric(u: Word, v: Word, space: Space) -> Fraction:
    """The induced invariant metric: norm of u * v^-1."""
    return graev_norm(Word(u.letters + invert_word(v).letters), space)
