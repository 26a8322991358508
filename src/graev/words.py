"""Letters, words and free-group operations over a pointed alphabet.

A letter is a point of the underlying space together with a sign; a word is
a finite sequence of letters.  The base point of the space acts as the group
identity: base-point letters are stripped during reduction, so the reduced
form of a word is unique and two group elements are equal iff their reduced
words are equal.

Words are immutable values; every operation returns a new word.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence, Union

from .rationals import clip, parse_rational
from .values import Value

if TYPE_CHECKING:
    from .spaces import Space

Point = Union[str, Fraction]


class WordParseError(ValueError):
    """Raised when word text cannot be parsed over the given space."""


class Letter(Value):
    __slots__ = _fields = ("point", "sign")

    def __init__(self, point: Point, sign: int = 1) -> None:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "sign", sign)

    def inverse(self) -> "Letter":
        return Letter(self.point, -self.sign)


class Word(Value):
    __slots__ = _fields = ("letters",)

    def __init__(self, letters: tuple[Letter, ...] = ()) -> None:
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, index: int) -> Letter:
        return self.letters[index]


def free_reduce(w: Word, base: Point) -> Word:
    """The unique reduced word freely equal to ``w``.

    Base-point letters are dropped and adjacent mutually inverse letters are
    cancelled until neither remains.  Idempotent; never increases length.
    """
    out: list[Letter] = []
    for letter in w:
        if letter.point == base:
            continue
        if out and out[-1].point == letter.point and out[-1].sign == -letter.sign:
            out.pop()
        else:
            out.append(letter)
    return Word(tuple(out))


def is_reduced(w: Word, base: Point) -> bool:
    for i, letter in enumerate(w):
        if letter.point == base:
            return False
        if i and w[i - 1].point == letter.point and w[i - 1].sign == -letter.sign:
            return False
    return True


def invert_word(w: Word) -> Word:
    """Reverse the letter order and flip every sign."""
    return Word(tuple(letter.inverse() for letter in reversed(w.letters)))


def concat(u: Word, v: Word, base: Point) -> Word:
    """Group product: append then reduce."""
    return free_reduce(Word(u.letters + v.letters), base)


def conjugate(g: Word, w: Word, base: Point) -> Word:
    """reduce(g * w * g^-1)."""
    return free_reduce(Word(g.letters + w.letters + invert_word(g).letters), base)


def cyclic_shift(w: Word, k: int) -> Word:
    """Rotate the letter sequence left by ``k`` (no reduction applied)."""
    if len(w) == 0:
        return w
    k %= len(w)
    return Word(w.letters[k:] + w.letters[:k])


def enumerate_reduced_words(alphabet: Sequence[Letter], max_len: int) -> Iterator[Word]:
    """All reduced words of length <= max_len over a signed alphabet.

    The alphabet must not contain base-point letters.  Words come out in
    canonical order: by length, then lexicographically by alphabet index.
    """
    yield Word(())
    frontier: list[tuple[Letter, ...]] = [()]
    for _ in range(max_len):
        nxt: list[tuple[Letter, ...]] = []
        for prefix in frontier:
            for letter in alphabet:
                if prefix and prefix[-1].point == letter.point and prefix[-1].sign == -letter.sign:
                    continue
                nxt.append(prefix + (letter,))
        for letters in nxt:
            yield Word(letters)
        frontier = nxt


def signed_alphabet(points: Sequence[Point]) -> list[Letter]:
    """Both signs of each point, in the given point order, + before -."""
    return [Letter(p, s) for p in points for s in (1, -1)]


def parse_word(text: str, space: "Space") -> Word:
    """Parse whitespace-separated letters over ``space``.

    A letter is ``<point>`` or ``<point>^-1``; points are generator names
    for finite spaces and rationals in [0, 1] for the interval.  Empty
    input denotes the identity.
    """
    letters = []
    for token in text.split():
        letters.append(parse_letter(token, space))
    return Word(tuple(letters))


def parse_letter(token: str, space: "Space") -> Letter:
    shown = repr(clip(token))
    body, sign = token, 1
    if token.endswith("^-1"):
        body, sign = token[:-3], -1
    elif "^" in token:
        raise WordParseError(f"bad letter token {shown}: only a ^-1 suffix is supported")
    if not body:
        raise WordParseError(f"bad letter token {shown}: empty point")
    if space.kind == "interval":
        try:
            point: Point = parse_rational(body)
        except ValueError as err:
            # parse_rational names a reason after "bad rational: ", else echoes the text
            reason = str(err).partition("bad rational: ")[2] or "not a rational point"
            raise WordParseError(f"bad letter token {shown}: {reason}") from None
        if not space.contains(point):
            raise WordParseError(f"bad letter token {shown}: point outside [0, 1]")
    else:
        if not space.contains(body):
            raise WordParseError(f"bad letter token {shown}: unknown point of the space")
        point = body
    return Letter(point, sign)


def format_letter(letter: Letter) -> str:
    text = str(letter.point)
    return text + ("^-1" if letter.sign < 0 else "")


def format_word(w: Word) -> str:
    return " ".join(format_letter(letter) for letter in w)
