"""Reference answers computed from the definitions, without importing graev.

The benchmark checks every answer the program gives against these.  A
letter is a ``(point, sign)`` pair and a word is a tuple of letters; points
are strings for the finite spaces and ``Fraction`` values for the interval.

The norm evaluator is a first-position interval recursion (the program's
``norm_dp`` recurses on the last position), so a shared mistake in the
recursion would have to be made twice, in two different shapes.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from math import lcm

ZERO = Fraction(0)


class Space:
    """A pointed metric space: a name as the CLI spells it, a base point, a distance."""

    def __init__(self, name: str, base, generators: tuple, dist):
        self.name = name
        self.base = base
        self.generators = generators
        self.dist = dist


def _interval_dist(a: Fraction, b: Fraction) -> Fraction:
    return abs(a - b)


INTERVAL = Space("interval", ZERO, (), _interval_dist)


def star(m: int) -> Space:
    """e1..em at distance 1 from the base point e and 2 from each other."""

    def dist(a: str, b: str) -> Fraction:
        if a == b:
            return ZERO
        return Fraction(1) if "e" in (a, b) else Fraction(2)

    return Space(f"lemma32-m{m}", "e", tuple(f"e{i}" for i in range(1, m + 1)), dist)


def chain(m: int) -> Space:
    """f1..fm on the integer line, the base point e sitting at 0."""

    def pos(p: str) -> int:
        return 0 if p == "e" else int(p[1:])

    def dist(a: str, b: str) -> Fraction:
        return Fraction(abs(pos(a) - pos(b)))

    return Space(f"chain{m}", "e", tuple(f"f{i}" for i in range(1, m + 1)), dist)


# words


def inverse(letter):
    return (letter[0], -letter[1])


def invert(word: tuple) -> tuple:
    return tuple(inverse(x) for x in reversed(word))


def reduce(word, base) -> tuple:
    """Drop base-point letters and cancel adjacent inverse pairs."""
    out: list = []
    for point, sign in word:
        if point == base:
            continue
        if out and out[-1] == (point, -sign):
            out.pop()
        else:
            out.append((point, sign))
    return tuple(out)


def power(word: tuple, n: int, base) -> tuple:
    return reduce(word * n, base)


def fmt_word(word) -> str:
    return " ".join(str(p) + ("^-1" if s < 0 else "") for p, s in word)


def parse_word(text: str, space: Space) -> tuple:
    out = []
    for token in text.split():
        body, sign = (token[:-3], -1) if token.endswith("^-1") else (token, 1)
        out.append((Fraction(body) if space is INTERVAL else body, sign))
    return tuple(out)


def exponent_sums(word, points) -> dict:
    return {p: sum(s for q, s in word if q == p) for p in points}


# norm


def tilde(space: Space, a, b) -> Fraction:
    """The point metric extended to signed letters; opposite signs route
    through the base point, and the base-point letter has no sign."""
    sa = 1 if a[0] == space.base else a[1]
    sb = 1 if b[0] == space.base else b[1]
    if sa == sb:
        return space.dist(a[0], b[0])
    return space.dist(a[0], space.base) + space.dist(space.base, b[0])


def costs(word: tuple, space: Space) -> tuple[list, list]:
    """Per-position costs of the defining half-sum.

    An unmatched position i contributes d~(x_i, x_i^-1) / 2; a matched pair
    (i, t) contributes (d~(x_i, x_t^-1) + d~(x_t, x_i^-1)) / 2.
    """
    k = len(word)
    fix = [tilde(space, x, inverse(x)) / 2 for x in word]
    pair = [[ZERO] * k for _ in range(k)]
    for i in range(k):
        for t in range(i + 1, k):
            value = (tilde(space, word[i], inverse(word[t])) + tilde(space, word[t], inverse(word[i]))) / 2
            pair[i][t] = pair[t][i] = value
    return fix, pair


def norm(word: tuple, space: Space) -> Fraction:
    """Minimum over non-crossing partial matchings, first-position recursion.

    F(i, j) = min( fix_i + F(i+1, j),
                   min_{i < t <= j} pair(i, t) + F(i+1, t-1) + F(t+1, j) ).
    A pair with pair(i, t) >= fix_i + fix_t is skipped: unmatching both of
    its ends keeps the matching non-crossing and costs no more, so the
    minimum is unchanged.
    """
    k = len(word)
    if k == 0:
        return ZERO
    fix, pair = costs(word, space)
    # F[i][j + 1] holds F(i, j); F[i][i] is the empty range
    F = [[ZERO] * (k + 1) for _ in range(k + 1)]
    for i in range(k - 1, -1, -1):
        row, below = F[i], F[i + 1]
        pi, fi = pair[i], fix[i]
        useful = [t for t in range(i + 1, k) if pi[t] < fi + fix[t]]
        for j in range(i, k):
            best = fi + below[j + 1]
            for t in useful:
                if t > j:
                    break
                cand = pi[t] + below[t] + F[t + 1][j + 1]
                if cand < best:
                    best = cand
            row[j + 1] = best
    return F[0][k]


def matching_failure(word: tuple, space: Space, image, value: Fraction):
    """None when ``image`` (1-based images of 1..k) is a non-crossing
    involution whose cost under the definition equals ``value``."""
    if len(image) != len(word) or not noncrossing_involution(image):
        return f"matching {image} is not a non-crossing involution of 1..{len(word)}"
    fix, pair = costs(word, space)
    total = sum((fix[i - 1] if j == i else pair[i - 1][j - 1] for i, j in enumerate(image, 1) if j >= i), ZERO)
    if total != value:
        return f"matching costs {total}, value is {value}"
    return None


def tie_rule_matching(word: tuple, space: Space) -> tuple:
    """The matching ``norm_dp`` recovers at the baseline commit (``baseline.json``).

    Its documented rule: a last-position interval DP where ties prefer
    leaving x_j unmatched, then the smallest split t.  Run here on integers
    scaled by the common denominator, which keeps every comparison; splits
    with pair(t, j) >= fix_t + fix_j never win a strict comparison against
    leaving x_j unmatched, so skipping them keeps the recovered matching.
    """
    k = len(word)
    fix, pair = costs(word, space)
    scale = lcm(*(c.denominator for c in fix), *(c.denominator for row in pair for c in row))
    fx = [int(c * scale) for c in fix]
    pr = [[int(c * scale) for c in row] for row in pair]
    cost = [[0] * (k + 1) for _ in range(k + 1)]  # cost[i][j + 1] = C(i, j)
    back = [[-1] * k for _ in range(k)]
    for span in range(1, k + 1):
        for i in range(0, k - span + 1):
            j = i + span - 1
            best, choice = cost[i][j] + fx[j], -1
            for t in range(i, j):
                if pr[t][j] >= fx[t] + fx[j]:
                    continue
                cand = cost[i][t] + pr[t][j] + cost[t + 1][j]
                if cand < best:
                    best, choice = cand, t
            cost[i][j + 1], back[i][j] = best, choice
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
    return tuple(image)


def noncrossing_involution(image) -> bool:
    """Is ``image`` (1-based) an involution whose 2-cycles do not cross?"""
    k = len(image)
    stack: list[int] = []
    for i in range(1, k + 1):
        j = image[i - 1]
        if not 1 <= j <= k or image[j - 1] != i:
            return False
        if j > i:
            stack.append(i)
        elif j < i and (not stack or stack.pop() != j):
            return False
    return True


MOTZKIN = [1, 1]
for _n in range(2, 200):
    MOTZKIN.append(((2 * _n + 1) * MOTZKIN[-1] + (3 * _n - 3) * MOTZKIN[-2]) // (_n + 2))


# certificates


def certificate_failure(target: tuple, bases, n: int, c: Fraction, space: Space, norms: dict):
    """None when every base has norm below c and the n-th powers multiply
    to the reduced target.  ``norms`` caches base norms by word."""
    for x in bases:
        if x not in norms:
            norms[x] = norm(reduce(x, space.base), space)
        if norms[x] >= c:
            return f"base {fmt_word(x)!r} has norm {norms[x]} >= {c}"
    product: tuple = ()
    for x in bases:
        product = reduce(product + power(x, n, space.base), space.base)
    if product != reduce(target, space.base):
        return f"powers multiply to {fmt_word(product)!r}, not to the target"
    return None


def decomposition_failure(target: tuple, factors, m: int, value: Fraction):
    """None when the conjugated letters multiply to the target and their
    count equals the norm ``value``."""
    if len(factors) != value:
        return f"{len(factors)} factors for norm {value}"
    product: tuple = ()
    for g, a in factors:
        if len(a) != 1:
            return "a factor letter is not a single letter"
        product = reduce(product + g + a + invert(g), "e")
    if product != reduce(target, "e"):
        return f"factors multiply to {fmt_word(product)!r}, not to the target"
    return None


# point maps


def piecewise_breakpoints(points, values) -> list:
    pts = list(zip(points, values))
    if points[-1] != 1:
        pts.append((Fraction(1), values[-1]))
    return pts


def piecewise_apply(breakpoints, p: Fraction) -> Fraction:
    xs = [x for x, _ in breakpoints]
    idx = bisect_right(xs, p) - 1
    if idx == len(xs) - 1:
        return breakpoints[-1][1]
    (x0, y0), (x1, y1) = breakpoints[idx], breakpoints[idx + 1]
    return y0 + (y1 - y0) * (p - x0) / (x1 - x0)


def extend_map_stdout(points, values, word) -> str:
    """What ``extend-map`` prints for a partial contraction, with or without a word."""
    bps = piecewise_breakpoints(points, values)
    if word is None:
        payload = {
            "breakpoints": [[str(x), str(y)] for x, y in bps],
            "kind": "piecewise",
            "contraction": all(abs(y1 - y0) <= x1 - x0 for (x0, y0), (x1, y1) in zip(bps, bps[1:])),
        }
        return json.dumps(payload) + "\n"
    image = reduce(tuple((piecewise_apply(bps, p), s) for p, s in word), ZERO)
    return fmt_word(image) + "\n"
