"""The property runner, the names and case counts the suite reports, and
the forked run that gives the same results on every core."""

import itertools
import os
import random
import select
import threading

import pytest

import graev.suite as suite
from graev.cli import main
from graev.spaces import INTERVAL, star_space
from graev.suite import _run, _tilde_axioms, random_letter, run_suite
from graev.words import Letter

# (property, cases at --cases 0, cases at --cases 28), in run order; the
# exhaustive properties keep their count, cross-basis-agreement counts pairs
PINNED = [
    ("reduction-confluent", 0, 28),
    ("inverse-cancels", 0, 28),
    ("basis-substitution-roundtrip", 0, 28),
    ("tilde-dist-axioms-finite-exhaustive", 164, 164),
    ("tilde-dist-axioms-interval-random", 0, 28),
    ("tilde-dist-sign-rules", 0, 28),
    ("sigma-motzkin-counts", 8, 8),
    ("sigma-structural-equality", 8, 8),
    ("oracle-dp-equals-bruteforce", 0, 28),
    ("oracle-matching-consistent", 0, 28),
    ("norm-zero-iff-identity", 0, 28),
    ("norm-symmetric-under-inversion", 0, 28),
    ("norm-subadditive", 0, 28),
    ("norm-representation-independent", 0, 28),
    ("norm-conjugation-invariant", 0, 28),
    ("norm-cyclic-shift-invariant", 0, 28),
    ("metric-extends-point-distances", 0, 28),
    ("norm-letter-sum-upper-bound", 0, 28),
    ("metric-axioms-on-words", 0, 28),
    ("contraction-norm-monotone", 0, 28),
    ("scaling-norm-exact", 0, 28),
    ("certificate-transport-verifies", 0, 28),
    ("partial-extension-agrees-on-anchors", 0, 28),
    ("partial-extension-slopes-bounded", 0, 28),
    ("partial-extension-lipschitz-pairs", 0, 28),
    ("ball-decomposition-equivalence", 0, 28),
    ("conjugate-products-stay-in-ball", 0, 28),
    ("star-norm-integral", 0, 28),
    ("grid-rescale-norm-law", 0, 28),
    ("cross-basis-agreement", 2, 56),
    ("conjugate-product-pigeonhole", 0, 28),
    ("obstruction-fires-on-skew-powers", 6, 6),
    ("obstruction-silent-on-reducible-words", 0, 28),
]


@pytest.mark.parametrize("column, cases", [(1, 0), (2, 28)])
def test_property_names_and_case_counts_are_pinned(column, cases):
    got = [(r.name, r.cases) for r in run_suite("all", 0, cases=cases)]
    assert got == [(row[0], row[column]) for row in PINNED]


def test_run_counts_failures_and_keeps_the_first_counterexample():
    draws = []

    def check(rng, _):
        draws.append(rng.random())
        index = len(draws) - 1
        return f"case {index}" if index in (2, 5, 6) else None

    result = _run("runner-probe", 8, check, 3)()
    assert (result.name, result.cases, result.failures) == ("runner-probe", 8, 3)
    assert result.counterexample == "case 2" and not result.passed
    # every case draws from the one generator seeded by (seed, name)
    expected = random.Random("3:runner-probe")
    assert draws == [expected.random() for _ in range(8)]


def test_run_hands_each_case_the_next_cycle_value():
    seen = []
    result = _run("cycle-probe", 7, lambda rng, m: seen.append(m), 0, (2, 3, 4))()
    assert seen == [2, 3, 4, 2, 3, 4, 2]
    assert (result.cases, result.failures, result.counterexample) == (7, 0, None)


def test_random_letter_draws_the_base_point_at_its_rate_with_either_sign():
    for space in (star_space(3), INTERVAL):
        rng = random.Random(0)
        letters = [random_letter(rng, space, base_prob=0.25) for _ in range(400)]
        base_signs = [x.sign for x in letters if x.point == space.base]
        assert 60 < len(base_signs) < 140 and set(base_signs) == {1, -1}
        assert all(random_letter(rng, space).point != space.base for _ in range(100))


# d~ over (e1, e2, e3) of the rank-3 star, each table breaking one axiom at
# (e1, e2) and (e2, e1) only: a zero between distinct letters, an asymmetry,
# and a triangle broken only through the last letter (a negative distance
# would break the triangle at (e1, e1) too, as 0 > 2 d~(e1, e2))
BROKEN_TABLES = {
    "zero": [[0, 0, 2], [0, 0, 2], [2, 2, 0]],
    "asymmetric": [[0, 1, 2], [2, 0, 2], [2, 2, 0]],
    "triangle": [[0, 3, 1], [3, 0, 1], [1, 1, 0]],
}


@pytest.mark.parametrize("table", BROKEN_TABLES.values(), ids=BROKEN_TABLES)
def test_axiom_routine_names_each_broken_pair(monkeypatch, table):
    letters = [Letter("e1"), Letter("e2"), Letter("e3")]
    monkeypatch.setattr(suite, "_tilde_table", lambda *_: (table, 1))
    broken = {1: "axiom broke at (e1, e2)", 3: "axiom broke at (e2, e1)"}
    assert list(_tilde_axioms(letters, star_space(3))) == [broken.get(i) for i in range(9)]


def test_a_broken_table_fails_both_axiom_properties_and_the_suite_command(monkeypatch, capsys):
    real = suite._tilde_table

    def asymmetric(letters, space):
        d, scale = real(letters, space)
        d[0][1] += scale  # d~(x_0, x_1) no longer equals d~(x_1, x_0)
        return d, scale

    monkeypatch.setattr(suite, "_tilde_table", asymmetric)
    finite, interval, _ = [prop() for prop in suite.spaces_suite(0, 5)]
    # star2's alphabet starts with the base letters e and e^-1, one group element
    assert (finite.cases, finite.counterexample) == (164, "axiom broke at (e, e^-1)")
    assert 0 < finite.failures < finite.cases
    assert (interval.cases, interval.failures) == (5, 5)
    assert interval.counterexample.startswith("axiom broke at (")
    code = main(["suite", "--select", "spaces", "--cases", "5"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "counterexample[tilde-dist-axioms-finite-exhaustive]: axiom broke at (e, e^-1)" in lines
    assert lines[-1] == "RESULT: FAIL (3 properties, 3 failing)"


CASES = suite.SUITE_FORK_CASES_MIN


class ForkProbe:
    """Sets the core count ``run_suite`` sees (``cores``), and counts the forks
    it asks for (``asked``), the claim loops this process enters (``takes``:
    one per forked run) and the forked runs that returned their results
    (``returns``: none for a run that fell back to one process).  A fork
    beyond the workers the core count allows raises in place of forking.
    ``first`` picks the process that takes first: "child" keeps the parent
    waiting until the child has exited, "parent" keeps the child waiting
    until it is killed (or 10 s)."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.asked = self.takes = self.returns = 0
        self.first = None
        self.held = []  # this process's ends of the pipes a waiting child reads
        self.real_fork, self.real_take, self.real_forked = os.fork, suite._take, suite._forked
        monkeypatch.setattr(os, "fork", self.fork)
        monkeypatch.setattr(suite, "_take", self.take)
        monkeypatch.setattr(suite, "_forked", self.forked)
        self.cores(2)

    def cores(self, n):
        self.workers = min(n, suite.SUITE_WORKERS_MAX)
        self.monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    def take(self, *args):
        self.takes += 1
        return self.real_take(*args)

    def forked(self, *args):
        results = self.real_forked(*args)
        self.returns += 1
        return results

    def fork(self):
        self.asked += 1
        if self.asked >= self.workers:
            raise RuntimeError(f"fork {self.asked} with {self.workers} workers allowed")
        if self.first is None:
            return self.real_fork()
        read, write = os.pipe()
        pid = self.real_fork()
        if (pid == 0) == (self.first == "parent"):  # this side waits for the read end's EOF
            os.close(write)
            select.select([read], [], [], 10)
            os.close(read)
        else:
            os.close(read)
            self.held.append(write)  # a child's copy closes as it exits
        return pid


@pytest.fixture
def forks(monkeypatch):
    probe = ForkProbe(monkeypatch)
    yield probe
    for fd in probe.held:
        os.close(fd)
    with pytest.raises(ChildProcessError):  # no child of this process is left
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_every_selection_gives_the_single_process_results_on_any_core_count(forks, cores):
    forked = int(cores > 1)
    for seed in range(10):
        for selection in ["all", *suite.SELECTIONS]:
            forks.cores(1)
            want = run_suite(selection, seed, CASES)
            forks.cores(cores)
            forks.asked = forks.takes = forks.returns = 0
            assert run_suite(selection, seed, CASES) == want, (selection, seed)
            assert (forks.asked, forks.takes, forks.returns) == (cores - 1, forked, forked)


def test_a_run_forks_once_on_two_cores_and_only_where_it_pays(forks):
    def asked(cases):
        forks.asked = forks.returns = 0
        run_suite("sigma", 0, cases)
        return forks.asked, forks.returns  # forked runs, with no fork on one core too

    assert (asked(CASES), asked(CASES - 1)) == ((1, 1), (0, 0))
    forks.cores(1)
    assert asked(CASES) == (0, 0)
    forks.cores(2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert asked(CASES) == (0, 0)
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive() and asked(CASES) == (1, 1)
    forks.monkeypatch.delattr(os, "sched_getaffinity")
    assert asked(CASES) == (0, 0)


@pytest.mark.parametrize("first", ["child", "parent"])
def test_a_property_that_raises_in_either_process_raises_as_in_one_process(forks, monkeypatch, first):
    calls = []  # in this process

    def shift(w, k):
        calls.append(k)
        raise RuntimeError("cyclic shift broke")

    monkeypatch.setattr(suite, "cyclic_shift", shift)
    forks.first = first
    with pytest.raises(RuntimeError, match="cyclic shift broke"):
        run_suite("norm", 0, CASES)
    # the forked run fails, then the one-process run raises; a waiting parent
    # finds the raising property taken by the child and leaves it
    assert (forks.asked, forks.takes, forks.returns) == (1, 1, 0)
    assert len(calls) == {"child": 1, "parent": 2}[first]


def test_an_interrupt_in_the_parent_ends_the_children_and_the_run(forks, monkeypatch):
    calls = []  # in this process

    def shift(w, k):
        calls.append(k)
        raise KeyboardInterrupt

    monkeypatch.setattr(suite, "cyclic_shift", shift)
    forks.first = "parent"
    with pytest.raises(KeyboardInterrupt):
        run_suite("norm", 0, CASES)
    assert (forks.asked, forks.takes, forks.returns, len(calls)) == (1, 1, 0, 1)  # no one-process run follows


def test_a_property_run_by_two_processes_sends_the_run_back_to_one(forks, monkeypatch):
    forks.cores(1)
    want = run_suite("words", 0, CASES)
    forks.cores(2)
    claims = itertools.count()  # each process counts on its own copy, so every process takes everything
    monkeypatch.setattr(suite, "_claim", lambda counter: next(claims))
    assert run_suite("words", 0, CASES) == want
    assert (forks.asked, forks.takes, forks.returns) == (1, 1, 0)


def test_a_forked_run_builds_its_properties_in_the_parent_and_calls_each_once(forks, monkeypatch):
    forks.cores(1)
    want = run_suite("all", 0, CASES)
    forks.cores(2)
    parent = os.getpid()
    built = []
    read, write = os.pipe()  # one byte per property call, in any process
    os.set_blocking(read, False)

    def counted(prop):
        def call():
            os.write(write, b".")
            return prop()

        return call

    def parent_only(name, build):
        def wrapped(seed, cases):
            if os.getpid() != parent:
                raise RuntimeError(f"the {name} suite was built in a child")
            built.append(name)
            return [counted(prop) for prop in build(seed, cases)]

        return wrapped

    for name, build in list(suite.SELECTIONS.items()):
        monkeypatch.setitem(suite.SELECTIONS, name, parent_only(name, build))
    try:
        assert run_suite("all", 0, CASES) == want
        calls = os.read(read, 1024)
    finally:
        os.close(read)
        os.close(write)
    assert built == list(suite.SELECTIONS) and calls == b"." * len(want)
    assert (forks.asked, forks.takes, forks.returns) == (1, 1, 1)


def test_forked_runs_share_one_name_string_per_property(forks):
    runs = []
    for seed in (0, 1):
        forks.asked = 0
        runs.append(run_suite("all", seed, CASES))
    assert all(a.name is b.name for a, b in zip(*runs))
    assert forks.returns == 2


def test_every_property_gives_the_same_result_when_called_again():
    for build in suite.SELECTIONS.values():
        properties = build(0, CASES)
        first = [prop() for prop in properties]
        assert [prop() for prop in properties] == first
