"""Point maps, their extension to group endomorphisms, and basis changes.

A point map sends points of a domain space to points of a codomain space
with the base point going to the base point; it extends letterwise to a
group homomorphism on words.  Contractions (maps that do not increase any
distance) never increase the word norm, and exact-scaling maps multiply it
by their factor; both facts are exercised by the suite rather than assumed.
Each value class here checks its arguments in its one constructor: a
``PointMap`` that does not fix the base point, a ``PartialContraction``
that is not 1-Lipschitz and a ``BasisTranslation`` that is not a bijective
basis correspondence raise ValueError when built, copies included.

Piecewise-linear maps and partial contractions compare and interpolate on
the numerators and denominators of the few rationals each step involves:
a neighbour pair's order and slope are cross-multiplied from its two ends,
and ``apply`` builds a point's image as one ``Fraction(numerator,
denominator)`` from its segment's two ends and the point.  Each segment
works over its own denominators, never over one common scale for the whole
map: an lcm over all breakpoints grows with their count, so 400 anchors with
300-digit coprime denominators would put every step on ~120 000-digit
numbers.  Only a failing check formats its message from ``Fraction``s.

Also here: piecewise-linear extension of a partial contraction given on a
finite subset of [0, 1], the grid-to-chain rescaling map, and basis changes:
``translate_word`` substitutes generators between two free bases (such as
the triangular chain/star pair f_i <-> e1...ei), and ``check_cross_extension``
checks that the norms extended from one translation's two bases agree.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .norm import graev_metric, graev_norm
from .rationals import exact, parse_rational
from .spaces import INTERVAL, FiniteSpace, FrozenTable, Space, chain_space, json_field, json_list, star_space
from .values import Value
from .words import Letter, Point, Word, free_reduce, invert_word, parse_word

TABLE = "table"
AFFINE = "affine"
PIECEWISE = "piecewise"


class PointMap(Value):
    """A base-point-preserving map between pointed metric spaces.

    Three backings: a finite ``table`` of point images, an ``affine`` rule
    t -> scale*t on the interval with 0 <= scale <= 1, or a ``piecewise``
    linear self-map of the interval given by breakpoints covering [0, 1].
    Its numbers are ints or ``Fraction``s, stored as ``Fraction``s.
    The constructor checks the backing, that the map is a self-map of [0, 1]
    unless it is a table, and that the base point goes to the base point.
    """

    __slots__ = _fields = ("domain", "codomain", "kind", "table", "scale", "breakpoints")

    def __init__(
        self,
        domain: Space,
        codomain: Space,
        kind: str,
        table: Optional[Mapping[Point, Point]] = None,
        scale: Optional[Fraction] = None,
        breakpoints: Optional[Sequence[tuple[Fraction, Fraction]]] = None,
    ) -> None:
        backing = {TABLE: table, AFFINE: scale, PIECEWISE: breakpoints}
        if kind not in backing:
            raise ValueError(f"unknown point-map kind {kind!r}")
        if backing[kind] is None:
            raise ValueError(f"a point map of kind {kind!r} needs its {kind} data")
        if sum(value is not None for value in backing.values()) > 1:
            raise ValueError(f"a point map of kind {kind!r} takes no other kind's data")
        if kind == TABLE:
            table = FrozenTable(table)
            if domain.base not in table:
                raise ValueError("table does not define the image of the base point")
            if table[domain.base] != codomain.base:
                raise ValueError("map must send base point to base point")
            for p, q in table.items():
                if not domain.contains(p):
                    raise ValueError(f"table key {p!r} is not in the domain")
                if not codomain.contains(q):
                    raise ValueError(f"table value {q!r} is not in the codomain")
        elif domain != INTERVAL or codomain != INTERVAL:
            raise ValueError(f"a point map of kind {kind!r} is a self-map of [0, 1]")
        elif kind == AFFINE:
            scale = exact(scale)
            if not 0 <= scale <= 1:
                raise ValueError("affine self-map of [0, 1] needs 0 <= scale <= 1")
        else:
            breakpoints = tuple((exact(x), exact(y)) for x, y in breakpoints)
            if not breakpoints or breakpoints[0][0] != 0 or breakpoints[-1][0] != 1:
                raise ValueError("breakpoints must start at x = 0 and end at x = 1")
            ends = _ends(breakpoints)
            for (a, p, _, _), (b, r, _, _) in zip(ends, ends[1:]):
                if b * p <= a * r:  # x1 <= x0
                    raise ValueError("breakpoint positions must increase strictly")
            for _, _, v, q in ends:
                if not 0 <= v <= q:
                    raise ValueError("breakpoint values must lie in [0, 1]")
            if breakpoints[0][1] != 0:
                raise ValueError("map must send base point to base point")
        for name, value in zip(self._fields, (domain, codomain, kind, table, scale, breakpoints)):
            object.__setattr__(self, name, value)

    def apply(self, p: Point) -> Point:
        if self.kind == TABLE:
            # the domain check first: True and int 1 hash and compare like Fraction(1)
            if self.domain.contains(p) and p in self.table:
                return self.table[p]
            raise ValueError(f"point {p} is outside the map domain")
        if not self.domain.contains(p):
            raise ValueError(f"point {p!r} is outside [0, 1]")
        if self.kind == AFFINE:
            return self.scale * p
        idx = bisect_right(self.breakpoints, p, key=itemgetter(0)) - 1
        if idx == len(self.breakpoints) - 1:
            return self.breakpoints[-1][1]
        (x0, y0), (x1, y1) = self.breakpoints[idx], self.breakpoints[idx + 1]
        a, c, b, d = x0.numerator, x0.denominator, x1.numerator, x1.denominator
        u, q, v, s = y0.numerator, y0.denominator, y1.numerator, y1.denominator
        n, m = p.numerator, p.denominator
        run, rise = b * c - a * d, v * q - u * s  # (x1 - x0) * c * d, (y1 - y0) * q * s
        # y0 + (y1 - y0) * (p - x0) / (x1 - x0), with (p - x0) * m * c = n * c - a * m
        return Fraction(u * s * m * run + rise * (n * c - a * m) * d, q * s * m * run)


def extend_endomorphism(h: PointMap, w: Word) -> Word:
    """Apply ``h`` letterwise (inverse letters go to inverse images), reduce."""
    out = []
    for letter in w:
        out.append(Letter(h.apply(letter.point), letter.sign))
    return free_reduce(Word(tuple(out)), h.codomain.base)


def check_contraction(h: PointMap) -> bool:
    """True iff the map provably never increases a distance.

    Finite tables are checked exhaustively over key pairs; piecewise rules
    by every segment slope (sufficient and exact for continuous
    piecewise-linear maps); an affine rule is a contraction by construction,
    as its scale lies in [0, 1].  Every map fixes the base point by
    construction, so a contraction never increases a word's norm.
    """
    if h.kind == TABLE:
        keys = sorted(h.table, key=str)
        for p, q in itertools.combinations(keys, 2):
            if h.codomain.dist(h.table[p], h.table[q]) > h.domain.dist(p, q):
                return False
        return True
    if h.kind == AFFINE:
        return True
    ends = _ends(h.breakpoints)
    for (a, p, va, q), (b, r, vb, s) in zip(ends, ends[1:]):
        if abs(vb * q - va * s) * p * r > (b * p - a * r) * q * s:  # |y1 - y0| > x1 - x0
            return False
    return True


def _ends(pairs: Iterable[tuple[Fraction, Fraction]]) -> list[tuple[int, int, int, int]]:
    """(x.numerator, x.denominator, y.numerator, y.denominator) of each (x, y),
    to cross-multiply a neighbour pair over its own (positive) denominators."""
    return [(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in pairs]


class PartialContraction(Value):
    """1-Lipschitz values on a finite subset of [0, 1] containing 0.

    ``points`` must be strictly increasing, start at 0, and carry values in
    [0, 1] with value 0 at 0 and |v(b) - v(a)| <= b - a for neighbours
    (which already gives the inequality for every pair).  Both are ints or
    ``Fraction``s, stored as tuples of ``Fraction``s.
    """

    __slots__ = _fields = ("points", "values")

    def __init__(self, points: tuple[Fraction, ...], values: tuple[Fraction, ...]) -> None:
        points, values = tuple(map(exact, points)), tuple(map(exact, values))
        if len(points) != len(values):
            raise ValueError("points and values differ in length")
        if not points or points[0] != 0:
            raise ValueError("the anchor set must contain 0 as its first point")
        if values[0] != 0:
            raise ValueError("the value at 0 must be 0")
        ends = _ends(zip(points, values))
        for i, ((a, p, va, q), (b, r, vb, s)) in enumerate(zip(ends, ends[1:])):
            run = b * p - a * r  # (b - a) * p * r
            if run <= 0:
                raise ValueError("anchor points must increase strictly")
            if abs(vb * q - va * s) * p * r > run * q * s:  # |vb - va| > b - a
                t, u = points[i], points[i + 1]
                rise = abs(values[i + 1] - values[i])
                raise ValueError(f"not a partial contraction: |h({u}) - h({t})| = {rise} > {u - t}")
        for a, p, va, q in ends:
            if not 0 <= a <= p or not 0 <= va <= q:
                raise ValueError("anchors and values must lie in [0, 1]")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)


def extend_partial_contraction(p: PartialContraction) -> PointMap:
    """Extend to a piecewise-linear contraction of all of [0, 1].

    Between consecutive anchors the extension interpolates affinely; to the
    right of the last anchor it stays constant.  It agrees with the given
    values on the anchor set exactly.
    """
    breakpoints = list(zip(p.points, p.values))
    if p.points[-1] != 1:
        breakpoints.append((Fraction(1), p.values[-1]))
    return PointMap(INTERVAL, INTERVAL, PIECEWISE, breakpoints=breakpoints)


def scaling_norm_law(gamma: Fraction, w: Word) -> tuple[Fraction, Fraction]:
    """(norm of the image under t -> gamma*t, gamma * norm of w).

    The two components are equal exact rationals; the suite asserts that.
    """
    if not 0 < gamma <= 1:
        raise ValueError("scaling factor must satisfy 0 < gamma <= 1")
    image = extend_endomorphism(PointMap(INTERVAL, INTERVAL, AFFINE, scale=gamma), w)
    return graev_norm(image, INTERVAL), gamma * graev_norm(w, INTERVAL)


@lru_cache(maxsize=None)
def grid_map(m: int) -> PointMap:
    """Send the grid point k/m of [0, 1] to the chain generator fk (0 to e).

    Multiplies every distance by exactly m.
    """
    target = chain_space(m)
    table: dict[Point, Point] = {Fraction(0): "e"}
    for k in range(1, m + 1):
        table[Fraction(k, m)] = f"f{k}"
    return PointMap(INTERVAL, target, TABLE, table=table)


def rescale_grid_word(m: int, w: Word) -> Word:
    """Apply the grid-to-chain map letterwise; errors off the 1/m grid."""
    for letter in w:
        p = letter.point
        if not isinstance(p, Fraction) or not 0 <= p <= 1 or (p * m).denominator != 1:
            raise ValueError(f"point {p} is not on the 1/{m} grid")
    return extend_endomorphism(grid_map(m), w)


class BasisTranslation(Value):
    """Mutually inverse generator substitutions between two free bases."""

    __slots__ = _fields = ("space_a", "space_b", "a_to_b", "b_to_a")

    def __init__(
        self,
        space_a: Space,
        space_b: Space,
        a_to_b: Mapping[Point, Word],
        b_to_a: Mapping[Point, Word],
    ) -> None:
        if not isinstance(space_a, FiniteSpace) or not isinstance(space_b, FiniteSpace):
            raise ValueError("cross-basis checks need two finite spaces")
        directions = ((space_a, space_b, a_to_b, b_to_a), (space_b, space_a, b_to_a, a_to_b))
        if any(set(there) != set(source.generators) for source, _, there, _ in directions):
            raise ValueError("translation is not a bijective basis correspondence")
        for source, target, there, back in directions:
            for gen in source.generators:
                if translate_word(there[gen], back, target.base, source.base) != Word((Letter(gen),)):
                    raise ValueError("translation is not a bijective basis correspondence")
        object.__setattr__(self, "space_a", space_a)
        object.__setattr__(self, "space_b", space_b)
        object.__setattr__(self, "a_to_b", FrozenTable(a_to_b))
        object.__setattr__(self, "b_to_a", FrozenTable(b_to_a))


def translate_word(w: Word, mapping: Mapping[Point, Word], source_base: Point, target_base: Point) -> Word:
    out: list[Letter] = []
    for letter in w:
        if letter.point == source_base:
            continue
        try:
            image = mapping[letter.point]
        except KeyError:
            raise ValueError(f"no translation for generator {letter.point!r}") from None
        if letter.sign < 0:
            image = invert_word(image)
        out.extend(image.letters)
    return free_reduce(Word(tuple(out)), target_base)


def triangular_translation(m: int) -> BasisTranslation:
    """The chain/star correspondence f_i <-> e1...ei of rank m."""
    chain, star = chain_space(m), star_space(m)
    a_to_b = {
        f"f{i}": Word(tuple(Letter(f"e{j}") for j in range(1, i + 1))) for i in range(1, m + 1)
    }
    b_to_a: dict[Point, Word] = {"e1": Word((Letter("f1"),))}
    for i in range(2, m + 1):
        b_to_a[f"e{i}"] = Word((Letter(f"f{i - 1}", -1), Letter(f"f{i}")))
    return BasisTranslation(chain, star, a_to_b, b_to_a)


def check_cross_extension(tr: BasisTranslation, samples: Sequence[Word]) -> bool:
    """Do the norms extended from both bases of ``tr`` induce one metric?

    First verifies the hypothesis on the generator sets: the metric
    extended from one basis must restrict, on the translated generators of
    the other basis, to that basis's point metric.  If the hypothesis
    holds, every unordered pair from ``samples`` (words over
    ``tr.space_a``, each translated once) must get the same distance in
    both extensions.
    """
    s1, s2 = tr.space_a, tr.space_b

    for source, target, mapping in ((s2, s1, tr.b_to_a), (s1, s2, tr.a_to_b)):
        images = {
            p: translate_word(Word((Letter(p),)), mapping, source.base, target.base)
            for p in source.points
        }
        for a, b in itertools.combinations(source.points, 2):
            if graev_metric(images[a], images[b], target) != source.dist(a, b):
                return False

    translated = [translate_word(u, tr.a_to_b, s1.base, s2.base) for u in samples]
    for (u, tu), (v, tv) in itertools.combinations(zip(samples, translated), 2):
        if graev_metric(u, v, s1) != graev_metric(tu, tv, s2):
            return False
    return True


def map_to_json(h: PointMap) -> dict:
    if h.kind == TABLE:
        return {"map": {str(p): str(q) for p, q in h.table.items()}}
    if h.kind == AFFINE:
        return {"scale": str(h.scale)}
    return {
        "breakpoints": [[str(x), str(y)] for x, y in h.breakpoints]
    }


def map_from_json(data: dict, space: Space) -> PointMap:
    """Decode a point map; finite tables are read over ``space``."""
    if "scale" in data:
        return PointMap(INTERVAL, INTERVAL, AFFINE, scale=parse_rational(data["scale"]))
    if "breakpoints" in data:
        raw = json_field(
            data, "map", "breakpoints",
            lambda v: isinstance(v, list) and all(isinstance(b, list) and len(b) == 2 for b in v),
            "a list of [x, y] pairs",
        )
        breakpoints = [(parse_rational(x), parse_rational(y)) for x, y in raw]
        return PointMap(INTERVAL, INTERVAL, PIECEWISE, breakpoints=breakpoints)
    if "map" in data:
        raw = json_field(
            data, "map", "map",
            lambda v: isinstance(v, dict) and all(isinstance(q, str) for q in v.values()),
            "an object from point names to point names",
        )
        table: dict[Point, Point] = {}
        for p, q in raw.items():
            lp = parse_word(p, space)
            lq = parse_word(q, space)
            if len(lp) != 1 or len(lq) != 1 or lp[0].sign < 0 or lq[0].sign < 0:
                raise ValueError(f"map entry {p!r}: {q!r} must name single points")
            table[lp[0].point] = lq[0].point
        if space.base not in table:
            table[space.base] = space.base
        return PointMap(space, space, TABLE, table=table)
    raise ValueError("map file needs one of 'map', 'scale' or 'breakpoints'")


def partial_contraction_from_json(data: dict) -> PartialContraction:
    rationals = "rationals such as '1/2'"
    points, values = (
        tuple(parse_rational(t) for t in json_list(data, "partial contraction", name, object, rationals))
        for name in ("points", "values")
    )
    if len(points) != len(values):
        raise ValueError(
            "fields 'points' and 'values' must have the same length, "
            f"got {len(points)} and {len(values)}"
        )
    order = sorted(range(len(points)), key=lambda idx: points[idx])
    return PartialContraction(
        tuple(points[idx] for idx in order), tuple(values[idx] for idx in order)
    )
