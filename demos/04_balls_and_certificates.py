#!/usr/bin/env python3
"""Norm balls, conjugate decompositions, power certificates, obstructions."""

from fractions import Fraction

from graev import (
    INTERVAL,
    PointMap,
    decompose_conjugates,
    exponent_obstruction,
    exponent_sum,
    graev_norm,
    parse_word,
    search_power_certificate,
    star_space,
    transport_certificate,
)
from graev.certificates import (
    conjugate_decomposition_failure,
    decomposition_to_json,
    power_certificate_failure,
    power_certificate_to_json,
    word_power,
)

star = star_space(3)

# Inside the radius-m ball every word splits into N(w) conjugated letters.
w = parse_word("e1 e2 e1^-1 e3", star)
print("N(w) =", graev_norm(w, star), "| in radius-3 ball:", graev_norm(w, star) < 3)
decomposition = decompose_conjugates(w, 3)
print("decomposition:", decomposition_to_json(decomposition))
print("verifies:", conjugate_decomposition_failure(decomposition) is None)
print("outside the ball:", decompose_conjugates(parse_word("e1 e2 e3", star), 3))

# Power certificates witness membership in the group generated by n-th
# powers of a norm ball; verification just re-checks norms and the product.
target = parse_word("2/5 2/5 2/5", INTERVAL)
cert = search_power_certificate(target, Fraction(1, 2), 3, max_factors=2, max_base_length=1, space=INTERVAL)
print("\nfound certificate:", power_certificate_to_json(cert))
print("verifies:", power_certificate_failure(cert, INTERVAL) is None)

# Contractions transport certificates: scaled bases stay inside the ball.
halved = transport_certificate(cert, PointMap(INTERVAL, INTERVAL, "affine", scale=Fraction(1, 2)))
print("transported:", power_certificate_to_json(halved))
print("still verifies:", power_certificate_failure(halved, INTERVAL) is None)

# The exponent-sum obstruction proves some words are NOT such products.
star2 = star_space(2)
skew = word_power(parse_word("e1 e2", star2), 2, "e")
print("\nexponent sums of (e1 e2)^2:", [exponent_sum(skew, g) for g in ("e1", "e2")])
print("obstruction:", exponent_obstruction(skew, 2, 3))
print("search within budget:", search_power_certificate(skew, Fraction(2), 3, max_factors=2, max_base_length=2, space=star2))
