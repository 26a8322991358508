#!/usr/bin/env python3
"""Tour of the word algebra: letters, reduction, conjugation, basis change."""

from graev import (
    concat,
    conjugate,
    cyclic_shift,
    format_word,
    free_reduce,
    invert_word,
    parse_word,
    star_space,
    triangular_translation,
)
from graev.maps import translate_word

star = star_space(3)

# Words are whitespace-separated letters; ^-1 marks an inverse letter.
w = parse_word("e1 e2 e2^-1 e3", star)
print("raw word:     ", format_word(w))
print("reduced:      ", format_word(free_reduce(w, "e")))

# The base point letter acts as the identity and vanishes under reduction.
noisy = parse_word("e e1 e^-1 e1^-1", star)
print("noisy word:   ", format_word(noisy), "->", repr(format_word(free_reduce(noisy, "e"))))

# Group operations: inversion reverses and flips, concatenation reduces.
u = parse_word("e1 e2^-1", star)
print("inverse:      ", format_word(invert_word(u)))
print("u * u^-1:     ", repr(format_word(concat(u, invert_word(u), "e"))))

# Conjugation and cyclic rotation produce conjugate words.
g = parse_word("e1", star)
print("g w g^-1:     ", format_word(conjugate(g, parse_word("e2", star), "e")))
print("shifted:      ", format_word(cyclic_shift(parse_word("e1 e2 e3", star), 1)))

# The triangular basis change (graev.maps): f_i maps to e1...ei, and back
# e1 to f1 and ei to f(i-1)^-1 fi.
triangular = triangular_translation(2)
f_word = parse_word("f2 f1^-1", triangular.space_a)
e_word = translate_word(f_word, triangular.a_to_b, "e", "e")
print("f-basis word: ", format_word(f_word))
print("as e-word:    ", format_word(e_word))
print("round trip:   ", format_word(translate_word(e_word, triangular.b_to_a, "e", "e")))
