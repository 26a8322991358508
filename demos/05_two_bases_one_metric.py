#!/usr/bin/env python3
"""Grid rescaling and the agreement of norms extended from two bases."""

import random

from graev import (
    INTERVAL,
    check_cross_extension,
    format_word,
    graev_norm,
    parse_word,
    rescale_grid_word,
    triangular_translation,
)
from graev.spaces import chain_space
from graev.suite import random_reduced_word

m = 3
chain = chain_space(m)

# Sending k/m to the chain generator fk multiplies every distance by m,
# so it multiplies the whole norm by exactly m.
w = parse_word("1/3 2/3^-1 1", INTERVAL)
image = rescale_grid_word(m, w)
print("grid word:", format_word(w))
print("image:    ", format_word(image))
print("norms:    ", graev_norm(w, INTERVAL), "->", graev_norm(image, chain), f"(factor {m})")

# The chain basis f1..fm and the star basis e1..em generate the same free
# group via f_i = e1...ei.  Extending either point metric gives the same
# invariant metric; check_cross_extension verifies the restriction
# hypothesis on the generators first, then compares sample pairs.
translation = triangular_translation(m)
print("\nf2 translated:", format_word(translation.a_to_b["f2"]))
print("e2 translated:", format_word(translation.b_to_a["e2"]))

rng = random.Random(0)
samples = [random_reduced_word(rng, chain, 4) for _ in range(15)]
agrees = check_cross_extension(translation, samples)
print(f"norms agree on {15 * 14 // 2} sample pairs:", agrees)
