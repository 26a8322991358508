"""Pointed metric spaces: finite distance tables and the rational unit interval.

Two backings are supported.  A finite space stores a full symmetric table of
nonnegative rationals over named points (one of which is the base point); the
interval space is the rational segment [0, 1] with base point 0 and
d(x, y) = |x - y|.  ``FiniteSpace`` has one constructor, and it checks: it
takes each distance in either order, closes the table under symmetry, and
raises ValueError on a missing, conflicting or unknown pair or a violated
metric axiom, so every finite space, a copy or a decoded file included, is
a metric.

The point metric extends to signed letters: d~ is d(x, y) for equal signs
and d(x, e) + d(e, y) for opposite signs.  Each space computes d~ in one
place, ``integer_costs``: the cost table of a word's letters, position by
position, as integers over a common denominator bounded by
``SCALE_DIGITS_MAX``, with no ``Fraction`` arithmetic.  The interval scales
by the lcm of the letters' denominators, found per call, and on the signed
whole numbers U = sign * p * scale a pair costs |U_t + U_j|: |P - Q| for
x_t and x_j^-1 of equal signs, P + Q = d(p, 0) + d(0, q) for opposite ones.
A finite space scales by the lcm of its table's denominators and reads each
letter's row of a signed table built once from its distances.  The base
letter needs no branch: d(e, e) = 0, so d(e, y) and d(e, e) + d(e, y) are
the same value and either sign of e gives it.  Every norm takes its costs
from there, so it is also where a letter's point is checked to be in the
space; ``tilde_dist`` is the one ``Fraction`` view of it, for a single pair
of letters.

Spaces are immutable after construction, hashable, and safe to share between
concurrent norm computations.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence, Union

from .rationals import clip, exact, parse_rational
from .values import Value

if TYPE_CHECKING:
    from .words import Letter, Point

# a finite space holds an (m+1)^2 table and validating it checks (m+1)^3
# triangles (about 0.8 s at m = 64), so the rank of the built-in star and
# chain spaces and the non-base points of a space file are capped
SPACE_RANK_MAX = 64

# digits of the common denominator a norm's costs are scaled to: the lcm of
# the letters' denominators on the interval, of the distance table's on a
# finite space.  Any one rational (at most 1000 digits) fits, and a value's
# numerator has at most 1003 digits more, so every value prints.  At the
# length cap, 256 interval letters with distinct prime denominators (an lcm
# of 1002 digits) took 11.5 s in norm_dp and 0.3 s as a value alone on a
# 2-core VM; with an lcm of 2561 digits norm_dp took 31 s
SCALE_DIGITS_MAX = 1000


def check_scale(scale: int, what: str) -> int:
    """``scale``, the common denominator of ``what`` costs, unless it has
    more than ``SCALE_DIGITS_MAX`` digits."""
    # 10^d has more than 3d bits, so a shorter scale needs no comparison
    if scale.bit_length() > 3 * SCALE_DIGITS_MAX and scale >= 10**SCALE_DIGITS_MAX:
        raise ValueError(f"{what} common denominator is above the limit of {SCALE_DIGITS_MAX} digits")
    return scale


class FrozenTable(dict):
    """A dict that refuses changes, hashed as the frozenset of its items, so
    equal tables hash equal and the spaces and point maps holding one hash."""

    def __hash__(self) -> int:  # type: ignore[override]
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return FrozenTable, (dict(self),)

    def _frozen(self, *args, **kwargs):
        raise TypeError("a FrozenTable cannot be changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _frozen


class IntervalSpace(Value):
    """The rational segment [0, 1], base point 0, d(x, y) = |x - y|.

    It has no fields, so every instance equals every other."""

    __slots__ = _fields = ()
    kind = "interval"
    base = Fraction(0)

    def contains(self, p: "Point") -> bool:
        return isinstance(p, Fraction) and 0 <= p.numerator <= p.denominator

    def dist(self, a: Fraction, b: Fraction) -> Fraction:
        return abs(a - b)

    def integer_costs(self, letters: Sequence["Letter"]) -> tuple[list, list, int]:
        """(fix, pair, scale) of a word's letters: d~(x_t, e) and
        d~(x_t, x_j^-1) times the scale, the lcm of the points'
        denominators, |U_t| and |U_t + U_j| on U = sign * p * scale.  Each
        point is checked to be in the space, and then the scale against
        ``SCALE_DIGITS_MAX``."""
        nums, dens = [], []
        for x in letters:
            p = x.point
            # contains(p) reading the numerator and denominator once (a test keeps both alike)
            if not (isinstance(p, Fraction) and 0 <= (a := p.numerator) <= (q := p.denominator)):
                raise ValueError(f"letter point {p!r} is not in the space")
            nums.append(x.sign * a)
            dens.append(q)
        scale = check_scale(lcm(*dens), "the letters'")
        whole = [a * (scale // q) for a, q in zip(nums, dens)]
        return list(map(abs, whole)), [[abs(u + v) for v in whole] for u in whole], scale


class FiniteSpace(Value):
    # ``generators`` are the points other than the base, in point order;
    # ``signed`` numbers the signed letters (p, s), and ``scaled[i][j]`` is
    # d~(x_i, x_j^-1) times ``table_scale``, the lcm of the table's
    # denominators; derived from the fields, they are no fields: they take
    # no part in equality, hashing or the repr
    __slots__ = ("base", "points", "table", "generators", "signed", "scaled", "table_scale")
    _fields = ("base", "points", "table")

    kind = "finite"

    def __init__(
        self, base: str, points: tuple[str, ...], table: Mapping[tuple[str, str], Fraction]
    ) -> None:
        """Distances given in either order as ints or ``Fraction``s, closed
        under symmetry, with d(p, p) = 0 added; every pair and the metric
        axioms are checked, so a violation raises ValueError, on copies and
        pickles too."""
        if base not in points:
            raise ValueError(f"base point {base!r} is not among the points")
        if len(set(points)) != len(points):
            raise ValueError("duplicate point names")
        full = {(p, p): Fraction(0) for p in points}
        for (a, b), value in table.items():
            if a not in points or b not in points:
                raise ValueError(f"distance entry ({a}, {b}) names an unknown point")
            value = exact(value)
            for key in ((a, b), (b, a)):
                if key in full and full[key] != value:
                    raise ValueError(f"conflicting distances for pair {key}")
                full[key] = value
        for a, b in itertools.combinations(points, 2):
            if (a, b) not in full:
                raise ValueError(f"missing distance for pair ({a}, {b})")
        for a, b in itertools.combinations(points, 2):
            if full[a, b] < 0:
                raise ValueError(f"not a metric: nonnegativity violated at ({a}, {b})")
            if full[a, b] == 0:
                raise ValueError(f"not a metric: identity violated at ({a}, {b})")
        for a, via, b in itertools.permutations(points, 3):
            if full[a, b] > full[a, via] + full[via, b]:
                raise ValueError(f"not a metric: triangle violated at ({a}, {via}, {b})")
        points, table = tuple(points), FrozenTable(full)
        scale = check_scale(lcm(*(d.denominator for d in table.values())), "the space's")
        whole = {key: d.numerator * (scale // d.denominator) for key, d in table.items()}
        signed = [(p, s) for p in points for s in (1, -1)]
        scaled = [
            [whole[p, q] if s != r else whole[p, base] + whole[base, q] for q, r in signed] for p, s in signed
        ]
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "generators", tuple(p for p in points if p != base))
        object.__setattr__(self, "signed", {x: i for i, x in enumerate(signed)})
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "table_scale", scale)

    def contains(self, p: "Point") -> bool:
        try:
            return (p, 1) in self.signed
        except TypeError:  # an unhashable point
            return False

    def dist(self, a: str, b: str) -> Fraction:
        try:
            return self.table[(a, b)]
        except (KeyError, TypeError):  # TypeError: an unhashable point
            raise ValueError(f"no distance for pair ({a}, {b})") from None

    def integer_costs(self, letters: Sequence["Letter"]) -> tuple[list, list, int]:
        """(fix, pair, scale) of a word's letters, read from each letter's
        row of ``scaled``: the fix cost in the base letter's column, since
        d~(x, e^-1) = d~(x, e); the scale is ``table_scale``, whatever the
        letters."""
        try:
            at = [self.signed[x.point, x.sign] for x in letters]
        except (KeyError, TypeError):
            bad = next(x.point for x in letters if x.point not in self.points)
            raise ValueError(f"letter point {bad!r} is not in the space") from None
        e = self.signed[self.base, 1]
        rows = [self.scaled[i] for i in at]
        return [row[e] for row in rows], [[row[j] for j in at] for row in rows], self.table_scale


Space = Union[IntervalSpace, FiniteSpace]

INTERVAL = IntervalSpace()


def tilde_dist(a: "Letter", b: "Letter", space: Space) -> Fraction:
    """The extension of the point metric to signed letters.

    Same signs look up the point distance directly; opposite signs route
    through the base point: d(x, e) + d(e, y).  The base-point letter is
    sign-insensitive.  It is the space's ``integer_costs`` pair cost of a
    and b^-1 over its scale.
    """
    _, pair, scale = space.integer_costs((a, b.inverse()))
    return Fraction(pair[0][1], scale)


def _check_rank(kind: str, m: int) -> None:
    if m < 1:
        raise ValueError(f"{kind} space needs at least one generator")
    if m > SPACE_RANK_MAX:
        raise ValueError(f"{kind} space rank {clip(str(m))} is above the limit of {SPACE_RANK_MAX} generators")


@lru_cache(maxsize=None)
def star_space(m: int) -> FiniteSpace:
    """Generators e1..em at distance 1 from the base and 2 from each other."""
    _check_rank("star", m)
    points = ("e",) + tuple(f"e{i}" for i in range(1, m + 1))
    entries: dict[tuple[str, str], Fraction] = {}
    for i in range(1, m + 1):
        entries[("e", f"e{i}")] = Fraction(1)
        for j in range(i + 1, m + 1):
            entries[(f"e{i}", f"e{j}")] = Fraction(2)
    return FiniteSpace("e", points, entries)


@lru_cache(maxsize=None)
def chain_space(m: int) -> FiniteSpace:
    """Generators f1..fm on the integer line: d(fi, fj) = |i-j|, d(fi, e) = i."""
    _check_rank("chain", m)
    points = ("e",) + tuple(f"f{i}" for i in range(1, m + 1))
    entries: dict[tuple[str, str], Fraction] = {}
    for i in range(1, m + 1):
        entries[("e", f"f{i}")] = Fraction(i)
        for j in range(i + 1, m + 1):
            entries[(f"f{i}", f"f{j}")] = Fraction(j - i)
    return FiniteSpace("e", points, entries)


def space_to_json(space: Space) -> dict:
    if not isinstance(space, FiniteSpace):
        return {"kind": "interval"}
    dist = {
        f"{a},{b}": str(space.table[(a, b)])
        for a, b in itertools.combinations(space.points, 2)
    }
    return {"kind": "finite", "base": space.base, "points": list(space.points), "dist": dist}


def space_from_json(data: dict) -> Space:
    """Decode a space; the symmetric closure is applied and the metric
    axioms are validated, so loading an invalid table fails, and a rank
    above ``SPACE_RANK_MAX`` is refused before any distance is read."""
    kind = data.get("kind")
    if kind == "interval":
        return INTERVAL
    if kind != "finite":
        raise ValueError(f"unknown space kind {kind!r}")
    base = json_str(data, "space", "base")
    points = json_list(data, "space", "points", str, "strings")
    rank = len(set(points) - {base})
    if rank > SPACE_RANK_MAX:
        raise ValueError(f"space file rank {rank} is above the limit of {SPACE_RANK_MAX} generators")
    raw = json_field(data, "space", "dist", lambda v: isinstance(v, dict), "an object")
    for p in points:
        if "," in p:
            raise ValueError(f"point name {p!r} may not contain a comma")
    entries = {}
    for key, value in raw.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad distance key {key!r}, expected 'a,b'")
        entries[(parts[0], parts[1])] = parse_rational(value)
    return FiniteSpace(base, points, entries)


def read_json(path: str, kind: str) -> dict:
    """The JSON object held in a ``kind`` file; a file that is not UTF-8
    JSON, any other top-level value, or nesting too deep to decode, is a
    ValueError.  Every file the program reads
    comes through here, and the decoders read its fields with ``json_field``
    and the readers below it, so every file kind reports a bad field alike."""
    import json  # here, so commands that read no file skip loading it

    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ValueError(f"the {kind} file is not JSON: {error}") from None
    if not isinstance(data, dict):
        raise ValueError(f"the {kind} file must hold a JSON object")
    return data


def json_field(data: dict, kind: str, key: str, valid: Callable[[object], bool], shape: str):
    """``data[key]`` read from a ``kind`` file.  A missing field, or a value
    ``valid`` rejects, is a ValueError; ``shape`` says what it must be."""
    try:
        value = data[key]
    except KeyError:
        raise ValueError(f"{kind} file is missing field {key!r}") from None
    if not valid(value):
        raise ValueError(f"field {key!r} must be {shape}")
    return value


def json_int(data: dict, kind: str, key: str) -> int:
    return json_field(data, kind, key, lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")


def json_str(data: dict, kind: str, key: str) -> str:
    return json_field(data, kind, key, lambda v: isinstance(v, str), "a string")


def json_list(data: dict, kind: str, key: str, item: type, items: str) -> list:
    """A list field whose entries are all ``item``s; ``items`` names them."""
    return json_field(
        data, kind, key, lambda v: isinstance(v, list) and all(isinstance(x, item) for x in v), f"a list of {items}"
    )


def load_space(path: str) -> Space:
    return space_from_json(read_json(path, "space"))


_BUILTIN = re.compile(r"lemma32-m([0-9]+)")


def builtin_space(name: str) -> Optional[Space]:
    """The built-in named spaces: ``interval`` and ``lemma32-m<k>``, k any
    ASCII digits (``star_space`` rejects a rank out of range)."""
    if name == "interval":
        return INTERVAL
    match = _BUILTIN.fullmatch(name)
    if match:
        digits = match.group(1).lstrip("0") or "0"
        if len(digits) > len(str(SPACE_RANK_MAX)):  # so int() never meets its 4300-digit limit
            raise ValueError(f"star space rank {clip(digits)} is above the limit of {SPACE_RANK_MAX} generators")
        return star_space(int(digits))
    return None


def resolve_space(name_or_path: str) -> Space:
    """A built-in space name, or else a path to a space JSON file."""
    space = builtin_space(name_or_path)
    if space is not None:
        return space
    return load_space(name_or_path)
