import random

import pytest

from fractions import Fraction

from graev.spaces import INTERVAL, star_space
from graev.suite import _reduce_random_order
from graev.words import (
    Letter,
    Word,
    WordParseError,
    concat,
    conjugate,
    cyclic_shift,
    enumerate_reduced_words,
    format_word,
    free_reduce,
    invert_word,
    is_reduced,
    parse_word,
    signed_alphabet,
)

STAR3 = star_space(3)


def w(text, space=STAR3):
    return parse_word(text, space)


def test_reduce_cancels_adjacent_inverse_pair():
    assert free_reduce(w("e1 e1^-1"), "e") == Word(())
    assert not is_reduced(w("e1 e2 e2^-1"), "e")


def test_reduce_single_inner_cancellation():
    assert free_reduce(w("e1 e2 e2^-1 e3"), "e") == w("e1 e3")


def test_reduce_fixes_reduced_words():
    word = w("e1 e2")
    assert free_reduce(word, "e") == word and is_reduced(word, "e")


def test_reduce_strips_base_point_letters():
    assert free_reduce(w("e e1 e^-1"), "e") == w("e1")
    assert not is_reduced(w("e1 e"), "e")
    assert free_reduce(parse_word("0 2/5", INTERVAL), Fraction(0)) == parse_word("2/5", INTERVAL)


def test_reduce_cascading_cancellation():
    assert free_reduce(w("e1 e2 e2^-1 e1^-1"), "e") == Word(())


def test_reduce_idempotent_and_never_grows():
    rng = random.Random(11)
    alphabet = signed_alphabet(("e1", "e2", "e3")) + [Letter("e"), Letter("e", -1)]
    for _ in range(300):
        letters = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        word = Word(letters)
        reduced = free_reduce(word, "e")
        assert free_reduce(reduced, "e") == reduced
        assert len(reduced) <= len(word)
        assert is_reduced(reduced, "e")


def test_reduce_confluent_under_random_cancellation_orders():
    rng = random.Random(5)
    alphabet = signed_alphabet(("e1", "e2")) + [Letter("e")]
    for _ in range(300):
        word = Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 12))))
        expected = free_reduce(word, "e")
        for _ in range(4):
            assert _reduce_random_order(rng, word, "e") == expected


def test_invert_reverses_and_flips():
    assert invert_word(w("e1 e2^-1")) == w("e2 e1^-1")


def test_concat_cancels_inverse_pair():
    assert concat(w("e1"), w("e1^-1"), "e") == Word(())


def test_concat_then_invert_is_identity():
    rng = random.Random(3)
    alphabet = signed_alphabet(("e1", "e2", "e3"))
    for _ in range(200):
        word = Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10))))
        assert concat(word, invert_word(word), "e") == Word(())


def test_conjugate_without_cancellation():
    assert conjugate(w("e1"), w("e2"), "e") == w("e1 e2 e1^-1")


def test_cyclic_shift_rotates_left():
    assert cyclic_shift(w("e1 e2 e3"), 1) == w("e2 e3 e1")


def test_cyclic_shift_zero_is_identity():
    word = w("e1 e2 e3")
    assert cyclic_shift(word, 0) == word


def test_cyclic_shift_full_rotation():
    word = w("e1 e2")
    assert cyclic_shift(word, 2) == word


def test_enumerate_reduced_words_counts():
    # 2m signed letters; length l >= 1 has 2m * (2m-1)^(l-1) reduced words
    words = list(enumerate_reduced_words(signed_alphabet(("e1", "e2")), 3))
    assert len(words) == 1 + 4 + 12 + 36
    assert len(set(words)) == len(words)


def test_parse_interval_letters():
    word = parse_word("2/5 0.4 4/5^-1", INTERVAL)
    assert word[0].point == Fraction(2, 5)
    assert word[1].point == Fraction(2, 5)
    assert word[2] == Letter(Fraction(4, 5), -1)


def test_parse_empty_text_is_identity():
    assert parse_word("", STAR3) == Word(())
    assert parse_word("   ", STAR3) == Word(())


def test_parse_rejects_unknown_generator():
    with pytest.raises(WordParseError, match="e7"):
        parse_word("e7", STAR3)


def test_parse_rejects_bad_exponent():
    with pytest.raises(WordParseError, match="e1\\^2"):
        parse_word("e1^2", STAR3)


def test_parse_rejects_point_outside_interval():
    with pytest.raises(WordParseError, match="7/5"):
        parse_word("7/5", INTERVAL)


def test_format_word_roundtrip():
    for text in ("", "e1", "e1 e2^-1 e3"):
        assert format_word(parse_word(text, STAR3)) == text.strip()
    assert format_word(parse_word("0.4 1^-1", INTERVAL)) == "2/5 1^-1"


def test_letter_sign_validation():
    with pytest.raises(ValueError):
        Letter("e1", 2)
