"""Command-line front end.

Commands: norm, metric, decompose, verify, search, check-sigma, extend-map,
suite.  Exit codes are stable across commands: 0 for success or a positive
verdict, 1 for a valid negative result (NONE, FAIL, UNKNOWN, a failing
suite), 2 for usage, parse or file errors.  Rationals print in lowest terms
and all output is deterministic for a fixed seed.

Each command imports the modules only it needs (``certificates``, ``maps``,
``suite``, ``json``) when it runs, so the start-up of every other command
skips them.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import NoReturn, Optional, Sequence

from .norm import NORM_LENGTH_MAX, check_length, graev_metric, is_sigma, matching_to_json, norm_dp  # re-exports NORM_LENGTH_MAX
from .rationals import clip, parse_rational
from .spaces import Space, read_json, resolve_space, star_space
from .words import format_word, free_reduce, parse_word


# ASCII digits with an optional sign, as for rationals: int() alone would also
# take underscores and other scripts' digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def integer(text: str) -> int:
    """Parse an integer argument; argparse names this function in its errors."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"bad integer {text!r}")
    return int(text)


def _space(args: argparse.Namespace, default: str = "interval") -> Space:
    return resolve_space(args.space if args.space is not None else default)


def _print_json(payload: dict) -> None:
    import json  # here, so commands that print text skip loading it

    print(json.dumps(payload))


def _cmd_norm(args: argparse.Namespace) -> int:
    check_length("word", args.word)
    space = _space(args)
    word = free_reduce(parse_word(args.word, space), space.base)
    value, matching = norm_dp(word, space)
    if args.json:
        _print_json({"norm": str(value), "matching": matching_to_json(matching, value)})
    else:
        print(value)
    return 0


def _cmd_metric(args: argparse.Namespace) -> int:
    check_length("left and right words", args.left, args.right)
    space = _space(args)
    u = parse_word(args.left, space)
    v = parse_word(args.right, space)
    value = graev_metric(u, v, space)
    if args.json:
        _print_json({"metric": str(value)})
    else:
        print(value)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .certificates import decompose_conjugates, decomposition_to_json

    check_length("word", args.word)
    m = args.m
    space = star_space(m)
    if args.space is not None:
        given = resolve_space(args.space)
        if given != space:
            raise ValueError(f"decompose needs the rank-{m} star space (lemma32-m{m})")
    word = parse_word(args.word, space)
    decomposition = decompose_conjugates(word, m)
    if decomposition is None:
        print("NONE")
        return 1
    _print_json(decomposition_to_json(decomposition))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .certificates import (
        conjugate_decomposition_failure,
        decomposition_from_json,
        power_certificate_failure,
        power_certificate_from_json,
    )

    data = read_json(args.certificate, "certificate")
    if "factors" in data:
        failure = conjugate_decomposition_failure(decomposition_from_json(data))
    elif "bases" in data:
        space = _space(args)
        failure = power_certificate_failure(power_certificate_from_json(data, space), space)
    else:
        raise ValueError("certificate file has neither 'factors' nor 'bases'")
    if args.json:
        payload = {"result": "PASS" if failure is None else "FAIL"}
        if failure is not None:
            payload["reason"] = failure
        _print_json(payload)
    elif failure is None:
        print("PASS")
    else:
        print(f"FAIL: {failure}")
    return 0 if failure is None else 1


def _cmd_search(args: argparse.Namespace) -> int:
    from .certificates import power_certificate_to_json, search_power_certificate

    check_length("target", args.word)
    space = _space(args)
    word = parse_word(args.word, space)
    certificate = search_power_certificate(
        word,
        parse_rational(args.c),
        args.n,
        max_factors=args.budget_factors,
        max_base_length=args.budget_length,
        space=space,
    )
    if certificate is None:
        print("UNKNOWN")
        return 1
    _print_json(power_certificate_to_json(certificate))
    return 0


def _cmd_check_sigma(args: argparse.Namespace) -> int:
    tokens = args.permutation.replace(",", " ").split()
    # a matching norm_dp recovers has at most NORM_LENGTH_MAX positions
    if len(tokens) > NORM_LENGTH_MAX:
        raise ValueError(f"permutation: {len(tokens)} images is above the limit of {NORM_LENGTH_MAX}")
    try:
        image = [integer(token) for token in tokens]
    except ValueError:
        raise ValueError(f"bad permutation {clip(args.permutation)!r}: expected integers") from None
    verdict = is_sigma(image)
    if args.json:
        _print_json({"k": len(image), "map": image, "is_sigma": verdict})
    else:
        print("true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_extend_map(args: argparse.Namespace) -> int:
    from .maps import (
        check_contraction,
        extend_endomorphism,
        extend_partial_contraction,
        map_from_json,
        map_to_json,
        partial_contraction_from_json,
    )

    data = read_json(args.mapfile, "map")
    space = _space(args)
    if "points" in data or "values" in data:
        mapping = extend_partial_contraction(partial_contraction_from_json(data))
    else:
        mapping = map_from_json(data, space)
    if args.word is None:
        payload = map_to_json(mapping)
        payload["kind"] = mapping.kind
        payload["contraction"] = check_contraction(mapping)
        _print_json(payload)
        return 0
    image = extend_endomorphism(mapping, parse_word(args.word, mapping.domain))
    if args.json:
        _print_json({"image": format_word(image)})
    else:
        print(format_word(image))
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from .suite import run_suite

    results = run_suite(select=args.select, seed=args.seed, cases=args.cases)
    ok = all(r.passed for r in results)
    if args.json:
        _print_json(
            {
                "seed": args.seed,
                "cases": args.cases,
                "results": [
                    {
                        "name": r.name,
                        "cases": r.cases,
                        "failures": r.failures,
                        "counterexample": r.counterexample,
                    }
                    for r in results
                ],
                "ok": ok,
            }
        )
        return 0 if ok else 1
    name_width = max(len(r.name) for r in results)
    print(f"{'property'.ljust(name_width)}  {'cases':>6}  {'failures':>8}")
    for r in results:
        print(f"{r.name.ljust(name_width)}  {r.cases:>6}  {r.failures:>8}")
    for r in results:
        if not r.passed and r.counterexample:
            print(f"counterexample[{r.name}]: {r.counterexample}")
    failing = sum(1 for r in results if not r.passed)
    verdict = "ok" if ok else "FAIL"
    print(f"RESULT: {verdict} ({len(results)} properties, {failing} failing)")
    return 0 if ok else 1


def _error_line(message: str) -> str:
    """``message`` as the one clipped ``error:`` line every failure prints."""
    return f"error: {clip(' '.join(message.splitlines()), 160)}\n"


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, with exit 2, in place of
    argparse's usage block; subparsers are made of this class too."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, _error_line(message))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--space",
        help="built-in space name (interval, lemma32-m<k>) or a space JSON file",
    )
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--seed", type=integer, default=0, help="seed for randomized runs")

    parser = _Parser(
        prog="graev",
        description="Exact norms and metrics on free groups over pointed metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", parents=[common], help="norm of a word")
    p_norm.add_argument("word")
    p_norm.set_defaults(func=_cmd_norm)

    p_metric = sub.add_parser("metric", parents=[common], help="distance between two words")
    p_metric.add_argument("left")
    p_metric.add_argument("right")
    p_metric.set_defaults(func=_cmd_metric)

    p_dec = sub.add_parser(
        "decompose", parents=[common], help="conjugate decomposition over the star space"
    )
    p_dec.add_argument("--m", type=integer, required=True, help="number of star generators")
    p_dec.add_argument("word")
    p_dec.set_defaults(func=_cmd_decompose)

    p_verify = sub.add_parser("verify", parents=[common], help="verify a certificate file")
    p_verify.add_argument("certificate")
    p_verify.set_defaults(func=_cmd_verify)

    p_search = sub.add_parser("search", parents=[common], help="search for a power certificate")
    p_search.add_argument("word")
    p_search.add_argument("--c", required=True, help="norm-ball radius (rational)")
    p_search.add_argument("--n", type=integer, default=3, help="power exponent (odd, >= 3)")
    p_search.add_argument("--budget-factors", type=integer, default=3)
    p_search.add_argument("--budget-length", type=integer, default=2)
    p_search.set_defaults(func=_cmd_search)

    p_sigma = sub.add_parser(
        "check-sigma", parents=[common], help="test matching-class membership of a permutation"
    )
    p_sigma.add_argument("permutation", help="images of 1..k, e.g. '3 2 1' or 3,2,1")
    p_sigma.set_defaults(func=_cmd_check_sigma)

    p_map = sub.add_parser(
        "extend-map", parents=[common], help="extend a point map and optionally apply it"
    )
    p_map.add_argument("mapfile", help="point-map or partial-contraction JSON file")
    p_map.add_argument("word", nargs="?", help="word to push through the extension")
    p_map.set_defaults(func=_cmd_extend_map)

    p_suite = sub.add_parser("suite", parents=[common], help="run the property suites")
    p_suite.add_argument("--select", default="all", help="suite selection (default: all)")
    p_suite.add_argument("--cases", type=integer, default=100, help="cases per property")
    p_suite.set_defaults(func=_cmd_suite)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as error:
        sys.stderr.write(_error_line(str(error)))
        return 2


if __name__ == "__main__":
    sys.exit(main())
