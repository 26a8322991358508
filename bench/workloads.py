"""The four seeded workloads: their inputs, their ops and the checks on each answer.

Inputs come from ``random.Random`` seeded with text naming the workload and
the seed, so one seed gives the same inputs in every process.  They are
made in the benchmark's own form (see ``reference``) and turned into graev
values only in ``prepare``, outside the timed call.

A workload yields rounds.  Every round of a workload has the same shape
(the same spaces, lengths and budgets, with new random letters), and a run
always ends on a whole round, so the latency quantiles do not depend on
how many rounds fit in the time.

Every op resolves the graev function it calls through its module at call
time, so the wrappers the traced run installs see the call.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

import reference as ref

STAR3 = ref.star(3)
SPACES = {"interval": ref.INTERVAL, "star3": STAR3, "chain4": ref.chain(4)}


def _rng(workload: str, seed: int, *more) -> random.Random:
    return random.Random(":".join(str(x) for x in ("graev-bench", workload, seed) + more))


def random_point(rng: random.Random, space: ref.Space, max_den: int = 10):
    if space is ref.INTERVAL:
        den = rng.randint(1, max_den)
        return Fraction(rng.randint(1, den), den)
    return rng.choice(space.generators)


def random_reduced(rng: random.Random, space: ref.Space, k: int, points=None) -> tuple:
    """A reduced word of exactly ``k`` letters, over ``points`` if given."""
    out: list = []
    while len(out) < k:
        point = rng.choice(points) if points else random_point(rng, space)
        letter = (point, rng.choice((1, -1)))
        if out and out[-1] == ref.inverse(letter):
            continue
        out.append(letter)
    return tuple(out)


def spawn(cmd: list, env: dict, cwd: str):
    """Run a child to completion; returns (exit code, stdout, stderr, its peak RSS in KiB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    with proc.stdout, proc.stderr:
        out = proc.stdout.read()
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), err.decode(), usage.ru_maxrss


class Item:
    """One op's input; ``text`` is its canonical serialization."""

    def __init__(self, text: str, **data):
        self.text = text
        self.__dict__.update(data)


class Workload:
    name = ""
    modules: tuple = ()

    def setup(self, root: str) -> None:
        self.root = root
        self.g = {m: importlib.import_module(f"graev.{m}") for m in self.modules}

    def graev_space(self, space: ref.Space):
        spaces = self.g["spaces"]
        if space is ref.INTERVAL:
            return spaces.INTERVAL
        build = spaces.star_space if space.generators[0] == "e1" else spaces.chain_space
        return build(len(space.generators))

    def graev_word(self, word: tuple):
        words = self.g["words"]
        return words.Word(tuple(words.Letter(p, s) for p, s in word))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


class NormLong(Workload):
    """``norm_dp`` on long reduced words over three spaces."""

    name = "norm-long"
    modules = ("words", "spaces", "norm")
    LENGTHS = (64, 96, 32, 80, 48)

    def setup(self, root: str) -> None:
        super().setup(root)
        rng = _rng(self.name, "warm-up")
        for space in SPACES.values():
            self.g["norm"].norm_dp(self.graev_word(random_reduced(rng, space, 8)), self.graev_space(space))

    def rounds(self, seed: int):
        rng = _rng(self.name, seed)
        while True:
            items = []
            for k in self.LENGTHS:
                for name, space in SPACES.items():
                    word = random_reduced(rng, space, k)
                    items.append(Item(f"{name} {ref.fmt_word(word)}", space=space, word=word))
            yield items

    def prepare(self, item: Item):
        word, space = self.graev_word(item.word), self.graev_space(item.space)
        norm = self.g["norm"]
        return lambda: norm.norm_dp(word, space)

    def check(self, item: Item, result, cache: dict):
        value, matching = result
        if item.text not in cache:
            cache[item.text] = ref.norm(item.word, item.space)
        expected = cache[item.text]
        if value != expected:
            return f"norm {value} != reference {expected}"
        return ref.matching_failure(item.word, item.space, matching.map, value)


class CertSearch(Workload):
    """Bounded power-certificate searches: half provably found, half provably unknown."""

    name = "cert-search"
    modules = ("words", "spaces", "norm", "certificates")
    N = 3
    # (space, radius, factors, base length); each cell gets one FOUND and one
    # UNKNOWN query.  Over the interval the radius admits the RANK shortest
    # bases, so the search does about the same work for every seed.
    GRID = (
        ("star3", Fraction(2), 2, 3),
        ("star3", Fraction(2), 2, 4),
        ("star3", Fraction(2), 3, 3),
        ("star3", Fraction(3), 2, 3),
        ("star3", Fraction(3), 3, 2),
        ("interval", 24, 2, 3),
        ("interval", 10, 3, 2),
    )

    def setup(self, root: str) -> None:
        super().setup(root)
        star = self.graev_space(STAR3)
        target = self.graev_word(((("e1", 1),) * 3))
        self.g["certificates"].search_power_certificate(target, Fraction(2), 3, 1, 1, star)

    @staticmethod
    def bases(points, length: int) -> list:
        """Every reduced word of 1..length letters over ``points``."""
        out: list = []
        frontier: list = [()]
        for _ in range(length):
            frontier = [w + ((p, s),) for w in frontier for p in points for s in (1, -1) if not w or w[-1] != (p, -s)]
            out += frontier
        return out

    def rounds(self, seed: int):
        rng = _rng(self.name, seed)
        norms: dict = {}
        while True:
            items = []
            for space_name, c, factors, length in self.GRID:
                for found in (True, False):
                    items.append(self._query(rng, space_name, c, factors, length, found, norms))
            yield items

    def _query(self, rng, space_name, c, factors, length, found, norms) -> Item:
        space = SPACES[space_name]
        while True:
            if space is ref.INTERVAL:
                points = sorted({random_point(rng, space) for _ in range(2)})
                if len(points) < 2:
                    continue
            else:
                points = list(space.generators)
            words = self.bases(points, length)
            for w in words:
                if w not in norms:
                    norms[w] = ref.norm(w, space)
            radius = sorted(norms[w] for w in words)[c] if space is ref.INTERVAL else c
            pool = [w for w in words if norms[w] < radius]
            if not pool:
                continue
            if found:
                bases = [rng.choice(pool) for _ in range(2)]
                target = ()
                for b in bases:
                    target = ref.reduce(target + ref.power(b, self.N, space.base), space.base)
                # the search draws its alphabet from the target's points
                used = {p for b in bases for p, _ in b}
                if not target or not used <= {p for p, _ in target}:
                    continue
            else:
                # some exponent sum is not 0 mod n, so no product of n-th powers equals it
                target = random_reduced(rng, space, rng.randint(3, 6), points)
                if all(s % self.N == 0 for s in ref.exponent_sums(target, points).values()):
                    continue
                if {p for p, _ in target} != set(points):
                    continue
            verdict = "FOUND" if found else "UNKNOWN"
            text = f"{space_name} c={radius} n={self.N} f={factors} L={length} {verdict} {ref.fmt_word(target)}"
            return Item(text, space=space, c=radius, factors=factors, length=length, found=found, target=target)

    def prepare(self, item: Item):
        certificates = self.g["certificates"]
        target, space = self.graev_word(item.target), self.graev_space(item.space)

        def op():
            cert = certificates.search_power_certificate(target, item.c, self.N, item.factors, item.length, space)
            failure = None if cert is None else certificates.power_certificate_failure(cert, space)
            return cert, failure

        return op

    def check(self, item: Item, result, cache: dict):
        cert, failure = result
        if (cert is not None) != item.found:
            return f"verdict {'FOUND' if cert else 'UNKNOWN'}, expected {'FOUND' if item.found else 'UNKNOWN'}"
        if cert is None:
            return None
        if failure is not None:
            return f"returned certificate fails its own check: {failure}"
        bases = [tuple((x.point, x.sign) for x in b) for b in cert.bases]
        return ref.certificate_failure(item.target, bases, self.N, item.c, item.space, cache)


# what run_suite("all", seed, cases) returns at the baseline commit: names in order,
# and the case counts that do not equal ``cases``
SUITE_PROPERTIES = (
    "reduction-confluent inverse-cancels basis-substitution-roundtrip "
    "tilde-dist-axioms-finite-exhaustive tilde-dist-axioms-interval-random tilde-dist-sign-rules "
    "sigma-motzkin-counts sigma-structural-equality oracle-dp-equals-bruteforce "
    "oracle-matching-consistent norm-zero-iff-identity norm-symmetric-under-inversion "
    "norm-subadditive norm-representation-independent norm-conjugation-invariant "
    "norm-cyclic-shift-invariant metric-extends-point-distances norm-letter-sum-upper-bound "
    "metric-axioms-on-words contraction-norm-monotone scaling-norm-exact "
    "certificate-transport-verifies partial-extension-agrees-on-anchors "
    "partial-extension-slopes-bounded partial-extension-lipschitz-pairs "
    "ball-decomposition-equivalence conjugate-products-stay-in-ball star-norm-integral "
    "grid-rescale-norm-law cross-basis-agreement conjugate-product-pigeonhole "
    "obstruction-fires-on-skew-powers obstruction-silent-on-reducible-words"
).split()


def suite_cases(name: str, cases: int) -> int:
    if name == "tilde-dist-axioms-finite-exhaustive":
        return 164  # every ordered pair of signed letters over star2, star3 and chain3
    if name.startswith("sigma-"):
        return 8
    if name == "obstruction-fires-on-skew-powers":
        return 6
    if name == "cross-basis-agreement":
        n = 2
        while n * (n - 1) // 2 < max(cases, 1):
            n += 1
        return n * (n - 1)  # all sample pairs, at ranks 2 and 3
    return cases


class Suite(Workload):
    """``run_suite("all", seed, cases=C)`` over many seeds."""

    name = "suite"
    modules = ("words", "spaces", "norm", "maps", "certificates", "suite")
    CASES = 28
    ROUND = 10

    def setup(self, root: str) -> None:
        super().setup(root)
        self.g["suite"].run_suite("all", 0, cases=1)  # fills the matching-class caches

    def rounds(self, seed: int):
        rng = _rng(self.name, seed)
        while True:
            yield [Item(f"all seed={s} cases={self.CASES}", seed=s) for s in (rng.randrange(2**31) for _ in range(self.ROUND))]

    def prepare(self, item: Item):
        suite = self.g["suite"]
        return lambda: suite.run_suite("all", item.seed, cases=self.CASES)

    def check(self, item: Item, result, cache: dict):
        got = [(r.name, r.cases, r.failures, r.counterexample) for r in result]
        want = [(name, suite_cases(name, self.CASES), 0, None) for name in SUITE_PROPERTIES]
        if got != want:
            bad = next((g for g, w in zip(got, want) if g != w), got[len(want):] or want[len(got):])
            return f"suite result differs: {bad}"
        return None


class CliShort(Workload):
    """One ``python -m graev`` process per op over the README commands."""

    name = "cli-short"
    modules = ()
    runner = None  # the program and its arguments in place of ``-m graev``
    PROBE_REFERENCE_S = 0.02  # what ``probe`` is scaled to

    def setup(self, root: str) -> None:
        super().setup(root)
        self.tmp = os.path.join(root, ".bench_work", f"cli-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.peak_kb = 0
        self.files = 0
        self.spawn(["check-sigma", "1"])

    def close(self) -> None:
        for name in os.listdir(self.tmp):
            os.remove(os.path.join(self.tmp, name))
        os.rmdir(self.tmp)

    def spawn(self, argv, runner=None):
        """Run one graev CLI child to completion; returns (exit code, stdout, stderr)."""
        code, out, err, peak_kb = spawn([sys.executable] + (runner or ["-m", "graev"]) + list(argv), self.env, self.root)
        self.peak_kb = max(self.peak_kb, peak_kb)
        return code, out, err

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024

    def probe(self) -> float:
        """Seconds to start and stop a bare interpreter, the machine-speed probe for this workload."""
        t0 = time.perf_counter()
        spawn([sys.executable, "-S", "-c", "pass"], self.env, self.root)
        return time.perf_counter() - t0

    def write_json(self, payload) -> str:
        self.files += 1
        path = os.path.join(self.tmp, f"in{self.files}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path

    def rounds(self, seed: int):
        rng = _rng(self.name, seed)
        while True:
            yield [
                self._norm(rng, rng.choice(("interval", "star3"))),
                self._metric(rng),
                self._decompose(rng),
                self._verify(rng, True),
                self._verify(rng, False),
                self._search(rng, True),
                self._search(rng, False),
                self._check_sigma(rng),
                self._extend_map(rng),
            ]

    @staticmethod
    def _item(argv, expect=None, verify=None, files=None) -> Item:
        text = " ".join(argv) + (f" files={json.dumps(files)}" if files else "")
        return Item(text, argv=argv, expect=expect, verify=verify, files=files or {})

    def _norm(self, rng, space_name) -> Item:
        space = SPACES[space_name]
        word = random_reduced(rng, space, rng.randint(3, 8))
        return self._item(["norm", "--space", space.name, ref.fmt_word(word)], (0, f"{ref.norm(word, space)}\n"))

    def _metric(self, rng) -> Item:
        space = SPACES[rng.choice(("interval", "star3"))]
        u, v = (random_reduced(rng, space, rng.randint(1, 4)) for _ in range(2))
        value = ref.norm(ref.reduce(u + ref.invert(v), space.base), space)
        return self._item(["metric", "--space", space.name, ref.fmt_word(u), ref.fmt_word(v)], (0, f"{value}\n"))

    def _decompose(self, rng) -> Item:
        word = random_reduced(rng, STAR3, rng.randint(2, 6))
        value = ref.norm(word, STAR3)
        argv = ["decompose", "--m", "3", ref.fmt_word(word)]
        if value >= 3:
            return self._item(argv, (1, "NONE\n"))

        def verify(code, out):
            data = json.loads(out)
            if code != 0 or data["m"] != 3 or data["target"] != ref.fmt_word(word):
                return f"decompose answered {code} {out.strip()}"
            factors = [(ref.parse_word(f["g"], STAR3), ref.parse_word(f["a"], STAR3)) for f in data["factors"]]
            return ref.decomposition_failure(word, factors, 3, value)

        return self._item(argv, verify=verify)

    def _power_target(self, rng, c):
        bases = [random_reduced(rng, STAR3, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        bases = [b for b in bases if ref.norm(b, STAR3) < c] or [(("e1", 1),)]
        target = ()
        for b in bases:
            target = ref.reduce(target + ref.power(b, 3, "e"), "e")
        return bases, target

    def _verify(self, rng, valid: bool) -> Item:
        c = Fraction(3)
        bases, target = self._power_target(rng, c)
        product = target
        if not valid:  # one more letter always changes the group element
            target = target + ((rng.choice(STAR3.generators), rng.choice((1, -1))),)
        payload = {"n": 3, "c": str(c), "target": ref.fmt_word(target), "bases": [ref.fmt_word(b) for b in bases]}
        argv = ["verify", "--space", STAR3.name, "{cert}"]
        if valid:
            expect = (0, "PASS\n")
        else:
            reason = (
                f"product mismatch: powers multiply to '{ref.fmt_word(product)}', "
                f"target reduces to '{ref.fmt_word(ref.reduce(target, 'e'))}'"
            )
            expect = (1, f"FAIL: {reason}\n")
        return self._item(argv, expect, files={"cert": payload})

    def _search(self, rng, found: bool) -> Item:
        c = Fraction(rng.choice((2, 3)))
        budget = ["--c", str(c), "--n", "3", "--budget-factors", "1", "--budget-length", "2"]
        if not found:
            while True:
                target = random_reduced(rng, STAR3, rng.randint(2, 4))
                if any(s % 3 for s in ref.exponent_sums(target, STAR3.generators).values()):
                    return self._item(["search", "--space", STAR3.name, ref.fmt_word(target)] + budget, (1, "UNKNOWN\n"))
        while True:
            base = random_reduced(rng, STAR3, rng.randint(1, 2))
            if ref.norm(base, STAR3) < c:
                break
        target = ref.power(base, 3, "e")

        def verify(code, out):
            data = json.loads(out)
            if code != 0 or data["n"] != 3 or data["c"] != str(c) or data["target"] != ref.fmt_word(target):
                return f"search answered {code} {out.strip()}"
            bases = [ref.parse_word(b, STAR3) for b in data["bases"]]
            if len(bases) != 1:
                return f"{len(bases)} bases for a budget of one factor"
            return ref.certificate_failure(target, bases, 3, c, STAR3, {})

        return self._item(["search", "--space", STAR3.name, ref.fmt_word(target)] + budget, verify=verify)

    def _check_sigma(self, rng) -> Item:
        k = rng.randint(3, 7)
        image = list(range(1, k + 1))
        if rng.random() < 0.5:
            rng.shuffle(image)
        else:  # a random non-crossing involution
            stack: list[int] = []
            for i in range(1, k + 1):
                if stack and rng.random() < 0.5:
                    j = stack.pop()
                    image[i - 1], image[j - 1] = j, i
                elif rng.random() < 0.6:
                    stack.append(i)
        verdict = ref.noncrossing_involution(image)
        return self._item(["check-sigma", " ".join(map(str, image))], (0, "true\n") if verdict else (1, "false\n"))

    def _extend_map(self, rng) -> Item:
        anchors = sorted({Fraction(0)} | {random_point(rng, ref.INTERVAL, 12) for _ in range(rng.randint(1, 4))})
        values = [Fraction(0)]
        for a, b in zip(anchors, anchors[1:]):
            den = rng.randint(1, 6)
            step = values[-1] + Fraction(rng.randint(-den, den), den) * (b - a)
            values.append(min(Fraction(1), max(Fraction(0), step)))
        payload = {"points": [str(a) for a in anchors], "values": [str(v) for v in values]}
        word = random_reduced(rng, ref.INTERVAL, rng.randint(2, 6)) if rng.random() < 0.7 else None
        argv = ["extend-map", "{map}"] + ([ref.fmt_word(word)] if word else [])
        return self._item(argv, (0, ref.extend_map_stdout(anchors, values, word)), files={"map": payload})

    def argv(self, item: Item) -> list:
        paths = {name: self.write_json(payload) for name, payload in item.files.items()}
        return [a.format(**paths) if a.startswith("{") else a for a in item.argv]

    def prepare(self, item: Item):
        argv = self.argv(item)
        runner = self.runner
        return lambda: self.spawn(argv, runner)

    def check(self, item: Item, result, cache: dict):
        code, out, err = result
        if item.verify is not None:
            try:
                return item.verify(code, out)
            except (ValueError, KeyError, TypeError) as error:
                return f"unreadable answer {out!r}: {error}"
        if (code, out) != item.expect:
            return f"got {(code, out)!r}, expected {item.expect!r}; stderr {err.strip()[-200:]!r}"
        return None


WORKLOADS = {w.name: w for w in (NormLong, CertSearch, Suite, CliShort)}
