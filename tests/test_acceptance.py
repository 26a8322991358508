"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  All tolerances are exact rational equalities unless a runtime bound
is stated.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from graev.cli import main as cli_main
from graev.maps import check_cross_extension, triangular_translation
from graev.norm import (
    enumerate_sigma,
    graev_norm,
    is_sigma,
    noncrossing_involutions,
    norm_bruteforce,
    norm_dp,
)
from graev.spaces import INTERVAL, chain_space, star_space
from graev.suite import (
    MOTZKIN_1_TO_8,
    contraction_suite,
    extension_suite,
    norm_suite,
    pigeonhole_suite,
    random_any_word,
    random_reduced_word,
)
from graev.certificates import conjugate_decomposition_failure, decompose_conjugates
from graev.maps import rescale_grid_word
from graev.words import enumerate_reduced_words, format_word, signed_alphabet

SEED = 20240831


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _assert_all_green(criterion: str, results, extra="") -> None:
    bad = [r for r in results if not r.passed]
    detail = ", ".join(f"{r.name}({r.cases} cases)" for r in results)
    if extra:
        detail = f"{extra}; {detail}"
    if bad:
        detail += "; failures: " + "; ".join(
            f"{r.name}: {r.counterexample}" for r in bad
        )
    _verdict(criterion, not bad, detail)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    star2 = star_space(2)
    exhaustive = 0
    for word in enumerate_reduced_words(signed_alphabet(star2.generators), 6):
        value, _ = norm_dp(word, star2)
        if value != norm_bruteforce(word, star2):
            _verdict("criterion 1 (oracle equivalence)", False, f"star word '{format_word(word)}'")
        exhaustive += 1

    rng = random.Random(SEED)
    randomized = 10_000
    for _ in range(randomized):
        word = random_any_word(rng, INTERVAL, 8, base_prob=0.05)
        value, _ = norm_dp(word, INTERVAL)
        if value != norm_bruteforce(word, INTERVAL):
            _verdict(
                "criterion 1 (oracle equivalence)", False, f"interval word '{format_word(word)}'"
            )
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 1 (oracle equivalence)",
        elapsed < 60.0,
        f"{exhaustive} exhaustive star words and {randomized} random interval words, "
        f"exact equality, {elapsed:.1f}s < 60s",
    )


def test_criterion_2_sigma_characterization():
    for k in range(1, 9):
        literal = {
            alpha for alpha in itertools.permutations(range(1, k + 1)) if is_sigma(alpha)
        }
        structural = noncrossing_involutions(k)
        if literal != structural:
            _verdict("criterion 2 (sigma characterization)", False, f"set mismatch at k={k}")
        if len(literal) != MOTZKIN_1_TO_8[k - 1]:
            _verdict(
                "criterion 2 (sigma characterization)",
                False,
                f"count {len(literal)} at k={k}, expected {MOTZKIN_1_TO_8[k - 1]}",
            )
        if {m.map for m in enumerate_sigma(k)} != structural:
            _verdict("criterion 2 (sigma characterization)", False, f"enumerator differs at k={k}")
    _verdict(
        "criterion 2 (sigma characterization)",
        True,
        f"full S_k filter equals the structural generator for k=1..8, counts {MOTZKIN_1_TO_8}",
    )


def test_criterion_3_invariant_norm_suite():
    results = [prop() for prop in norm_suite(SEED, 1000)]
    _assert_all_green("criterion 3 (invariant norm suite)", results, "1000 cases per property")


def test_criterion_4_contraction_suite():
    results = [prop() for prop in contraction_suite(SEED, 500)]
    _assert_all_green("criterion 4 (contractions and transport)", results, "500 cases per property")


def test_criterion_5_partial_extension():
    results = [prop() for prop in extension_suite(SEED, 1000)]
    _assert_all_green("criterion 5 (piecewise-linear extension)", results, "1000 cases per property")


def test_criterion_6_conjugate_decomposition():
    start = time.perf_counter()
    checked = 0
    for m in (2, 3):
        space = star_space(m)
        for word in enumerate_reduced_words(signed_alphabet(space.generators), 5):
            checked += 1
            value = graev_norm(word, space)
            decomposition = decompose_conjugates(word, m)
            if (value < m) != (decomposition is not None):
                _verdict(
                    "criterion 6 (conjugate decomposition)",
                    False,
                    f"ball mismatch on '{format_word(word)}' (m={m})",
                )
            if decomposition is None:
                continue
            if len(decomposition.factors) != value:
                _verdict(
                    "criterion 6 (conjugate decomposition)",
                    False,
                    f"factor count on '{format_word(word)}' (m={m})",
                )
            if conjugate_decomposition_failure(decomposition) is not None:
                _verdict(
                    "criterion 6 (conjugate decomposition)",
                    False,
                    f"re-multiplication failed on '{format_word(word)}' (m={m})",
                )
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 6 (conjugate decomposition)",
        elapsed < 120.0,
        f"{checked} words exhaustively for m in {{2, 3}}, {elapsed:.1f}s < 120s",
    )


def test_criterion_7_rescaling_and_cross_basis():
    for m in (2, 3):
        chain = chain_space(m)
        for word in enumerate_reduced_words(signed_alphabet([Fraction(j, m) for j in range(1, m + 1)]), 5):
            if graev_norm(rescale_grid_word(m, word), chain) != m * graev_norm(word, INTERVAL):
                _verdict(
                    "criterion 7 (rescaling and cross-basis)",
                    False,
                    f"rescale law broke on '{format_word(word)}' (m={m})",
                )
    pairs = 0
    for m in (2, 3):
        chain = chain_space(m)
        rng = random.Random(f"{SEED}:cross:{m}")
        samples = []
        seen = set()
        while len(samples) < 21:
            candidate = random_reduced_word(rng, chain, 4)
            if candidate not in seen:
                seen.add(candidate)
                samples.append(candidate)
        pairs += 21 * 20 // 2
        if not check_cross_extension(triangular_translation(m), samples):
            _verdict(
                "criterion 7 (rescaling and cross-basis)", False, f"cross-basis failed at m={m}"
            )
    _verdict(
        "criterion 7 (rescaling and cross-basis)",
        True,
        f"exact m*N rescaling exhaustively to length 5, cross-basis agreement on {pairs} pairs",
    )


def test_criterion_8_exponent_obstruction():
    results = [prop() for prop in pigeonhole_suite(SEED, 1000)]
    _assert_all_green("criterion 8 (exponent obstruction)", results, "1000 cases per property")


def test_criterion_9_cli_golden_transcripts(capsys, tmp_path):
    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"n": 3, "c": "1/2", "target": "2/5 2/5 2/5", "bases": ["2/5"]}))
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"points": ["0", "1/2"], "values": ["0", "1/4"]}))

    transcripts = [
        (("norm", "--space", "interval", "2/5 4/5^-1"), (0, "2/5\n")),
        (("norm", "--space", "lemma32-m3", "e1 e2 e1^-1"), (0, "1\n")),
        (("norm", "--space", "interval", ""), (0, "0\n")),
        (("metric", "--space", "interval", "2/5", "4/5"), (0, "2/5\n")),
        (
            ("decompose", "--m", "3", "e1 e2 e1^-1"),
            (0, '{"m": 3, "target": "e1 e2 e1^-1", "factors": [{"g": "e1", "a": "e2"}]}\n'),
        ),
        (("decompose", "--m", "3", "e1 e2 e3"), (1, "NONE\n")),
        (("verify", str(cert)), (0, "PASS\n")),
        (
            ("search", "--space", "interval", "2/5 2/5 2/5", "--c", "1/2", "--n", "3",
             "--budget-factors", "1", "--budget-length", "1"),
            (0, '{"n": 3, "c": "1/2", "target": "2/5 2/5 2/5", "bases": ["2/5"]}\n'),
        ),
        (("check-sigma", "3 2 1"), (0, "true\n")),
        (("check-sigma", "3 4 1 2"), (1, "false\n")),
        (
            ("extend-map", str(partial)),
            (
                0,
                '{"breakpoints": [["0", "0"], ["1/2", "1/4"], ["1", "1/4"]], '
                '"kind": "piecewise", "contraction": true}\n',
            ),
        ),
    ]
    for argv, expected in transcripts:
        got = run(*argv)
        if got != expected:
            _verdict(
                "criterion 9 (CLI golden transcripts)",
                False,
                f"{' '.join(argv)!r} printed {got!r}, expected {expected!r}",
            )

    first = run("suite", "--select", "all", "--seed", "7", "--cases", "25")
    second = run("suite", "--select", "all", "--seed", "7", "--cases", "25")
    if first != second or first[0] != 0:
        _verdict("criterion 9 (CLI golden transcripts)", False, "suite output not deterministic")
    _verdict(
        "criterion 9 (CLI golden transcripts)",
        True,
        f"{len(transcripts)} pinned transcripts and a byte-identical seeded suite rerun",
    )
