"""Spans and counters recorded around calls into graev, from outside the program.

``instrument`` replaces each public function of a graev module at the module
attribute where its caller looks it up (``graev.certificates.concat`` is
the ``concat`` that certificates bound from words), so calls are seen at
the boundary between two layers, and also within one layer when a module
calls its own public functions through its globals.  A boundary is named
``<layer>.<function>@<site>``: the layer that owns the function and the
module whose attribute was wrapped.

Most boundaries are hot (a large search makes about 10^5 ``concat`` calls),
so they are aggregated per op into count, total time and self time.  Only
the boundaries in ``RECORDED`` (the op itself, ``run_suite``, the CLI entry
point, the certificate entry points) and the entries of
``suite.SELECTIONS`` (site ``SELECTIONS``) are kept as individual spans.
Everything stays in memory and is written out when the run ends.

Calls to a generator function are counted once per item it yields, since
its work happens while the caller iterates.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

from reference import MOTZKIN

LAYERS = ("words", "spaces", "norm", "maps", "certificates", "suite", "cli", "rationals")

RECORDED = frozenset(
    {
        "op",
        "cli.main",
        "suite.run_suite",
        "certificates.search_power_certificate",
        "certificates.power_certificate_failure",
        "certificates.verify_power_certificate",
        "certificates.decompose_conjugates",
        "certificates.conjugate_decomposition_failure",
        "certificates.transport_certificate",
    }
)

SEARCH = "certificates.search_power_certificate"


def _is_recorded(key: str) -> bool:
    name, _, site = key.partition("@")
    return name in RECORDED or site == "SELECTIONS"


class Tracer:
    """A stack of open spans; self time is duration minus direct children."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.aggregates: dict = {}  # op -> key -> [count, total_s, self_s]
        self.counters: dict = {}  # op -> counter -> value
        self.op = None
        self.states: set | None = None
        self._stack: list[list] = []  # [key, start, child_s, span_id]

    def enter(self, key: str) -> None:
        span_id = None
        if _is_recorded(key):
            span_id = len(self.spans)
            self.spans.append({})
        frame = [key, 0.0, 0.0, span_id]
        self._stack.append(frame)
        frame[1] = self.clock()

    def exit(self) -> None:
        end = self.clock()
        key, start, child_s, span_id = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self_s = duration - child_s
        if span_id is None:
            per_op = self.aggregates.setdefault(self.op, {})
            entry = per_op.setdefault(key, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_s
            return
        parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
        self.spans[span_id] = {
            "id": span_id,
            "name": key,
            "start": start,
            "end": end,
            "parent": parent,
            "op": self.op,
            "self_s": self_s,
        }

    def count(self, counter: str, value) -> None:
        self.count_for(self.op, counter, value)

    def count_for(self, op, counter: str, value) -> None:
        per_op = self.counters.setdefault(op, {})
        per_op[counter] = per_op.get(counter, 0) + value

    def run_op(self, op_id, call):
        """Run one op as the root span of its tree."""
        self.op = op_id
        self.enter("op")
        try:
            return call()
        finally:
            self.exit()

    def merge(self, op_id, data: dict) -> None:
        """Fold in what a traced child process recorded for op ``op_id``."""
        base = len(self.spans)
        for span in data["spans"]:
            span = dict(span, id=span["id"] + base, op=op_id)
            if span["parent"] is not None:
                span["parent"] += base
            self.spans.append(span)
        for per_op in data["aggregates"].values():
            for key, (n, total, self_s) in per_op.items():
                entry = self.aggregates.setdefault(op_id, {}).setdefault(key, [0, 0.0, 0.0])
                entry[0] += n
                entry[1] += total
                entry[2] += self_s
        for per_op in data["counters"].values():
            for counter, value in per_op.items():
                self.count_for(op_id, counter, value)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": {str(op): per for op, per in self.aggregates.items()},
            "counters": {str(op): per for op, per in self.counters.items()},
        }

    def flat(self) -> dict:
        """Every boundary summed over ops: key -> [count, total_s, self_s]."""
        out: dict = {}
        for per_op in self.aggregates.values():
            for key, (n, total, self_s) in per_op.items():
                entry = out.setdefault(key, [0, 0.0, 0.0])
                entry[0] += n
                entry[1] += total
                entry[2] += self_s
        for span in self.spans:
            entry = out.setdefault(span["name"], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span["end"] - span["start"]
            entry[2] += span["self_s"]
        return out

    def counter_totals(self) -> dict:
        out: dict = {}
        for per_op in self.counters.values():
            for counter, value in per_op.items():
                out[counter] = out.get(counter, 0) + value
        return out


def _letters_in(args) -> int:
    return sum(len(a.letters) for a in args if hasattr(a, "letters"))


def _count_work(tracer: Tracer, key: str, args, result) -> None:
    """Work counts computed from the arguments and results seen at a boundary."""
    name, site = key.split("@")
    if name == "norm.norm_dp":
        k = len(args[0])
        tracer.count("norm.dp_cells", k * (k + 1) * (k + 2) // 6)
    elif name == "norm.norm_bruteforce":
        tracer.count("norm.bruteforce_matchings", MOTZKIN[len(args[0])])
    elif name.startswith("words."):
        tracer.count("words.letters_in", _letters_in(args))
        if name == "words.concat" and site == "certificates" and tracer.states is not None:
            tracer.states.add(result)


def _wrap(tracer: Tracer, key: str, fn):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                tracer.enter(key)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                _count_work(tracer, key, args, item)
                yield item

        return traced_gen

    search = key.split("@")[0] == SEARCH

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if search:
            tracer.states = set()
        tracer.enter(key)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
            if search:
                tracer.count("certificates.distinct_states", len(tracer.states))
                tracer.states = None
        _count_work(tracer, key, args, result)
        return result

    return traced


def instrument(tracer: Tracer, modules: dict):
    """Wrap every public graev function bound in ``modules`` (site -> module)
    and every entry of ``suite.SELECTIONS``; returns a function that undoes it."""
    patches = []
    for site, module in modules.items():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            owner = getattr(value, "__module__", "") or ""
            layer = owner.rpartition(".")[2]
            if not owner.startswith("graev.") or layer not in LAYERS:
                continue
            key = f"{layer}.{getattr(value, '__name__', attr)}@{site}"
            setattr(module, attr, _wrap(tracer, key, value))
            patches.append((module, attr, value))
    suite = modules.get("suite")
    saved = dict(suite.SELECTIONS) if suite is not None else {}
    for selection, fn in saved.items():
        suite.SELECTIONS[selection] = _wrap(tracer, f"suite.{selection}@SELECTIONS", fn)

    def undo() -> None:
        for module, attr, value in patches:
            setattr(module, attr, value)
        if suite is not None:
            suite.SELECTIONS.update(saved)

    return undo


def write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
