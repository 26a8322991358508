"""Seeded benchmark for graev: one workload per run, end to end or traced.

    python3 bench/run.py --workload norm-long --seed 1 --seconds 12 --trace 0

Builds nothing: it runs graev from ``src/`` of the checkout it sits in, and
exits with status 1 before printing a result if that is missing.  One
client drives the workload in a closed loop, in one process and one thread
(``cli-short`` runs one child process at a time).  The run times whole
rounds of ops until ``--seconds`` of scaled op time (see ``SpeedScale``)
have passed, then checks every answer against ``reference`` outside the
timed ops.

With ``--trace 0`` it reports the end-to-end metrics, their times scaled to
a machine of fixed speed; ``setup_s`` is the median over fresh processes
that each import graev, build the workload's spaces and warm up.  With ``--trace 1`` it runs a fixed number of rounds
with every graev boundary wrapped (see ``spans``), runs the same ops again
untraced, and reports the per-layer metrics; the spans go to
``.bench_work/trace-<workload>-<seed>.json``.

Every metric is printed as ``name value unit`` and the last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

import reference as ref  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CliShort, spawn  # noqa: E402

SETUP_SAMPLES = 9
CHILD_SAMPLES = 5
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# scaled op seconds of one round at the baseline commit (baseline.json); a traced run does
# round(seconds / 2 / NOMINAL_ROUND_S) rounds, so its counts repeat for a seed
NOMINAL_ROUND_S = {"norm-long": 3.6, "cert-search": 1.2, "suite": 2.45, "cli-short": 1.84}


def quantile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(latencies: list) -> tuple[float, float]:
    """(percentile, value): the highest of PERCENTILES that leaves at least 10 ops above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if n - max(1, math.ceil(p / 100 * n)) >= 10:
            best = p
    return best, quantile(ordered, best)


class SpeedScale:
    """Scales measured op times to a machine of fixed speed.

    The 2-core virtual machine this benchmark was tuned on shares its host:
    for stretches of seconds to minutes the same CPU-bound loop runs up to
    1.8 times slower, in process CPU time as much as in wall time.  Raw
    latencies of one op then spread by half their median between runs.
    Around each op the benchmark times a probe of the same kind of work as
    the op: for in-process workloads a fixed loop of ``Fraction`` sums,
    three times, keeping the median; for ``cli-short`` one bare interpreter
    start (``CliShort.probe``).  The op's time is multiplied by the probe's
    reference time over the mean of the probe times just before and just
    after it.  On that machine this brought the spread of one op's time
    from 0.57 to 0.09 of its median for ``norm_dp`` and from 0.19 to 0.12
    for a CLI process.  Times scaled this way read as on a machine where the
    probe takes its reference time; the raw figures are printed on the
    ``#`` lines.
    """

    def __init__(self, probe=None, reference_s: float = 0.001, repeats: int = 3):
        self.probe = probe or self.fraction_loop
        self.reference_s = reference_s
        self.repeats = repeats
        self.samples: list[float] = []
        self.before = self.sample()

    @staticmethod
    def fraction_loop() -> float:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(1, i % 97 + 1)
        return time.perf_counter() - t0

    @classmethod
    def for_workload(cls, workload) -> "SpeedScale":
        if isinstance(workload, CliShort):
            return cls(workload.probe, CliShort.PROBE_REFERENCE_S, 1)
        return cls()

    def sample(self) -> float:
        return statistics.median(self.probe() for _ in range(self.repeats))

    def start(self) -> None:
        """Take the probe time before a timed call that does not follow another."""
        self.before = self.sample()

    def scale(self, seconds: float) -> float:
        """Scale the call that just ended; its probe time also serves the next call."""
        after = self.sample()
        self.samples.append(after)
        factor = self.reference_s / ((self.before + after) / 2)
        self.before = after
        return seconds * factor


def measure(workload, items_or_rounds, scale: SpeedScale, seconds=None, call=None):
    """Time ops one at a time.

    Returns ([(item, result, error, raw seconds, scaled seconds)], [(raw, scaled)
    op seconds per round]).  With ``seconds`` it takes whole rounds from the
    iterator until that much scaled op time has passed, so how many rounds
    fit depends on the program and not on the machine's current speed;
    without, it runs every round given.
    """
    call = call or (lambda op_id, fn: fn())
    out = []
    rounds: list[list[float]] = []
    scale.start()
    for items in items_or_rounds:
        rounds.append([0.0, 0.0])
        for item in items:
            fn = workload.prepare(item)
            t0 = time.perf_counter()
            try:
                result, error = call(len(out), fn), None
            except Exception as exc:  # a raising op is a failed op, not a crashed run
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            scaled = scale.scale(latency)
            rounds[-1][0] += latency
            rounds[-1][1] += scaled
            out.append((item, result, error, latency, scaled))
        if seconds is not None and sum(r[1] for r in rounds) >= seconds:
            break
    return out, rounds


def check_all(workload, results, cache) -> list[str]:
    failures = []
    for item, result, error, *_ in results:
        failure = error or workload.check(item, result, cache)
        if failure:
            failures.append(f"{item.text[:120]}: {failure}")
    return failures


def cache_path(workload: str, seed: int) -> str:
    with open(os.path.join(BENCH, "reference.py"), "rb") as handle:
        version = hashlib.sha256(handle.read()).hexdigest()[:12]
    return os.path.join(WORK, f"ref-{workload}-{seed}-{version}.json")


def load_cache(workload: str, seed: int) -> dict:
    """Reference norms of earlier runs with this seed, by input text."""
    path = cache_path(workload, seed)
    if workload != "norm-long" or not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return {text: Fraction(value) for text, value in json.load(handle).items()}


def save_cache(workload: str, seed: int, cache: dict) -> None:
    if workload == "norm-long":
        with open(cache_path(workload, seed), "w", encoding="utf-8") as handle:
            json.dump({text: str(value) for text, value in cache.items()}, handle)


def setup(name: str):
    """Import graev, build the workload's spaces and warm up; returns (workload, seconds)."""
    t0 = time.perf_counter()
    workload = WORKLOADS[name]()
    workload.setup(ROOT)
    return workload, time.perf_counter() - t0


def setup_seconds(name: str, seed: int, scale: SpeedScale) -> tuple[float, float]:
    """Median set-up time over fresh processes, raw and scaled."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"]
    raw, scaled = [], []
    scale.start()
    for _ in range(SETUP_SAMPLES):
        code, out, err, _ = spawn(cmd, dict(os.environ), ROOT)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-300:]}")
        raw.append(float(out.split()[-1]))
        scaled.append(scale.scale(raw[-1]))
    return statistics.median(raw), statistics.median(scaled)


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, int, list]:
    workload, _ = setup(name)
    cache = load_cache(name, seed)
    scale = SpeedScale.for_workload(workload)
    try:
        results, rounds = measure(workload, workload.rounds(seed), scale, seconds)
        peak = workload.peak_rss_mb()
    finally:
        workload.close()
    failures = check_all(workload, results, cache)
    save_cache(name, seed, cache)
    per_round = len(results) / len(rounds)
    latencies = [r[4] for r in results]
    pct, tail_s = tail(latencies)
    setup_raw, setup_scaled = setup_seconds(name, seed, scale)
    metrics = {
        "setup_s": (setup_scaled, "s"),
        # the median over rounds, so a slow spell inside the run moves it less
        "ops_per_s": (statistics.median(per_round / scaled for _, scaled in rounds), "ops/s"),
        "p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    raw = [r[3] for r in results]
    print(f"# tail_ms is p{pct:g} of {len(results)} ops; failed_ratio {len(failures) / len(results):g}")
    print(
        f"# raw: setup_s {setup_raw:.6g}, ops_per_s {len(raw) / sum(raw):.6g}, p50_ms {statistics.median(raw) * 1000:.6g}, "
        f"tail_ms {tail(raw)[1] * 1000:.6g}; probe median {statistics.median(scale.samples) * 1000:.4g} ms"
    )
    return metrics, len(results), failures


def child_medians(env: dict) -> tuple[float, float]:
    """(bare interpreter wall seconds, in-process seconds to import graev.cli), medians."""
    interp, imports = [], []
    probe = "import time; t = time.perf_counter(); import graev.cli; print(time.perf_counter() - t)"
    for _ in range(CHILD_SAMPLES):
        t0 = time.perf_counter()
        spawn([sys.executable, "-c", "pass"], env, ROOT)
        interp.append(time.perf_counter() - t0)
        code, out, err, _ = spawn([sys.executable, "-c", probe], env, ROOT)
        if code != 0:
            raise RuntimeError(f"import probe failed: {err.strip()[-300:]}")
        imports.append(float(out))
    return statistics.median(interp), statistics.median(imports)


def cli_main_seconds(workload: CliShort, items) -> tuple[float, list]:
    """Median in-process ``graev.cli.main(argv)`` time over the items, and failures."""
    import graev.cli

    times, failures = [], []
    for item in items:
        argv = workload.argv(item)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = graev.cli.main(argv)
            times.append(time.perf_counter() - t0)
        failure = workload.check(item, (code, out.getvalue(), err.getvalue()), {})
        if failure:
            failures.append(f"in-process {item.text[:120]}: {failure}")
    return statistics.median(times), failures


def layer_metrics(tracer: spans.Tracer) -> dict:
    flat = tracer.flat()
    counters = tracer.counter_totals()

    def total(field: int, pred) -> float:
        out = 0
        for key, entry in flat.items():
            name, _, site = key.partition("@")
            if pred(name, site):
                out += entry[field]
        return out

    def calls(pred):
        return total(0, pred)

    def self_s(pred):
        return total(2, pred)

    def layer(prefix):
        return lambda name, site: name.startswith(prefix + ".")

    def named(*names):
        return lambda name, site: name in names

    concat_calls = calls(lambda name, site: name == "words.concat" and site == "certificates")
    distinct = counters.get("certificates.distinct_states", 0)
    m = {
        "norm.dp_calls": (calls(named("norm.norm_dp")), "count"),
        "norm.dp_self_s": (self_s(named("norm.norm_dp")), "s"),
        "norm.dp_cells": (counters.get("norm.dp_cells", 0), "count"),
        "norm.bruteforce_calls": (calls(named("norm.norm_bruteforce")), "count"),
        "norm.bruteforce_self_s": (self_s(named("norm.norm_bruteforce")), "s"),
        "norm.bruteforce_matchings": (counters.get("norm.bruteforce_matchings", 0), "count"),
        "spaces.tilde_dist_calls": (calls(named("spaces.tilde_dist")), "count"),
        "spaces.self_s": (self_s(layer("spaces")), "s"),
        "words.calls": (calls(layer("words")), "count"),
        "words.self_s": (self_s(layer("words")), "s"),
        "words.letters_in": (counters.get("words.letters_in", 0), "count"),
        "certificates.search_self_s": (self_s(named(spans.SEARCH)), "s"),
        "certificates.verify_self_s": (
            self_s(named("certificates.power_certificate_failure", "certificates.verify_power_certificate")),
            "s",
        ),
        "certificates.norm_calls": (calls(lambda name, site: name.startswith("norm.") and site == "certificates"), "count"),
        "certificates.concat_calls": (concat_calls, "count"),
        "certificates.distinct_states": (distinct, "count"),
        "certificates.state_yield": (distinct / concat_calls if concat_calls else 0.0, "ratio"),
        "maps.calls": (calls(layer("maps")), "count"),
        "maps.self_s": (self_s(layer("maps")), "s"),
    }
    for selection in SUITE_SELECTIONS:
        m[f"suite.{selection}_s"] = (total(1, named(f"suite.{selection}")), "s")
    m["rationals.calls"] = (calls(layer("rationals")), "count")
    m["rationals.self_s"] = (self_s(layer("rationals")), "s")
    return m


# the keys of graev.suite.SELECTIONS at the baseline commit, in order
SUITE_SELECTIONS = ("words", "spaces", "sigma", "oracle", "norm", "contraction", "extension", "decompose", "rescale", "pigeonhole")


def traced(name: str, seed: int, seconds: float) -> tuple[dict, int, list]:
    workload, _ = setup(name)
    cache = load_cache(name, seed)
    n_rounds = max(1, round(seconds / 2 / NOMINAL_ROUND_S[name]))
    rounds = workload.rounds(seed)
    chosen = [next(rounds) for _ in range(n_rounds)]
    tracer = spans.Tracer()
    scale = SpeedScale.for_workload(workload)
    os.makedirs(WORK, exist_ok=True)
    trace_path = os.path.join(WORK, f"trace-{name}-{seed}.json")
    failures: list = []
    try:
        if isinstance(workload, CliShort):
            child_out = os.path.join(workload.tmp, "child-trace.json")

            def call(op_id, fn):
                result = tracer.run_op(op_id, fn)
                with open(child_out, encoding="utf-8") as handle:
                    tracer.merge(op_id, json.load(handle))
                os.remove(child_out)
                return result

            workload.runner = [os.path.join(BENCH, "child.py"), child_out]
            try:
                traced_results, traced_rounds = measure(workload, chosen, scale, call=call)
            finally:
                workload.runner = None
            in_process = [item for items in chosen for item in items]
            main_s, main_failures = cli_main_seconds(workload, in_process)
            failures += main_failures
            attempted_extra = len(in_process)
        else:
            undo = spans.instrument(tracer, dict(workload.g))
            try:
                traced_results, traced_rounds = measure(workload, chosen, scale, call=tracer.run_op)
            finally:
                undo()
            main_s, attempted_extra = 0.0, 0
        plain_results, plain_rounds = measure(workload, chosen, scale)
        interp_s, import_s = child_medians(dict(os.environ, PYTHONPATH=SRC))
    finally:
        workload.close()
    results = traced_results + plain_results
    failures += check_all(workload, results, cache)
    save_cache(name, seed, cache)
    metrics = layer_metrics(tracer)
    changed = 0
    if name == "norm-long":
        for item, result, error, *_ in traced_results:
            changed += not error and result[1].map != ref.tie_rule_matching(item.word, item.space)
    metrics["norm.matching_changed"] = (changed, "count")
    metrics["cli.interp_s"] = (interp_s, "s")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.main_s"] = (main_s, "s")
    # scaled op times, so a change of machine speed between the passes cancels
    metrics["trace.overhead_ratio"] = (sum(r[1] for r in traced_rounds) / sum(r[1] for r in plain_rounds), "ratio")
    spans.write(trace_path, {"workload": name, "seed": seed, "rounds": n_rounds, **tracer.dump()})
    print(f"# traced {len(traced_results)} ops in {n_rounds} rounds; spans in {os.path.relpath(trace_path, ROOT)}")
    return metrics, len(results) + attempted_extra, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "graev", "__init__.py")):
        print(f"error: no graev package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    if args.setup_probe:
        workload, seconds = setup(args.workload)
        workload.close()
        print(seconds)
        return 0
    os.makedirs(WORK, exist_ok=True)
    run = traced if args.trace else end_to_end
    metrics, attempted, failures = run(args.workload, args.seed, args.seconds)
    import graev

    if os.path.dirname(os.path.abspath(graev.__file__)) != os.path.join(SRC, "graev"):
        print(f"error: graev was imported from {graev.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
