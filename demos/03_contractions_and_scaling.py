#!/usr/bin/env python3
"""Contractions, the exact scaling law, and 1-Lipschitz extension."""

from fractions import Fraction

from graev import (
    INTERVAL,
    PartialContraction,
    PointMap,
    check_contraction,
    extend_endomorphism,
    extend_partial_contraction,
    format_word,
    graev_norm,
    parse_word,
    scaling_norm_law,
    star_space,
)

# A base-preserving point map extends letterwise to a group endomorphism.
star = star_space(3)
swap = PointMap(star, star, "table", table={"e": "e", "e1": "e2", "e2": "e1", "e3": "e"})
w = parse_word("e1 e3 e2^-1", star)
print("word:      ", format_word(w))
print("image:     ", format_word(extend_endomorphism(swap, w)))
print("contraction?", check_contraction(swap))
print("norms:     ", graev_norm(w, star), "->", graev_norm(extend_endomorphism(swap, w), star))

# Exact scaling: t -> gamma*t multiplies the norm by exactly gamma.
word = parse_word("2/5 4/5^-1", INTERVAL)
for gamma in (Fraction(1, 2), Fraction(1, 3)):
    scaled, law = scaling_norm_law(gamma, word)
    print(f"gamma={gamma}: N(image) = {scaled} = gamma*N(w) = {law}")

# A 1-Lipschitz map given on finitely many anchors extends to all of [0, 1]:
# affine between anchors, constant past the last one.
partial = PartialContraction(
    (Fraction(0), Fraction(1, 4), Fraction(1, 2)),
    (Fraction(0), Fraction(1, 4), Fraction(1, 8)),
)
extension = extend_partial_contraction(partial)
print("\nanchors:   ", list(zip(partial.points, partial.values)))
print("breakpoints:", extension.breakpoints)
for t in (Fraction(1, 8), Fraction(3, 8), Fraction(3, 4)):
    print(f"h({t}) = {extension.apply(t)}")
print("extension is a contraction:", check_contraction(extension))
