"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench/tests
"""

import itertools
import json
import os
import random
import subprocess
import sys
import unittest
from fractions import Fraction

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from graev.norm import norm_bruteforce, norm_dp  # noqa: E402
from graev.spaces import INTERVAL, chain_space, star_space  # noqa: E402
from graev.words import Letter, Word  # noqa: E402

DUMP = """
import sys
sys.path.insert(0, {bench!r})
from workloads import WORKLOADS
for name, cls in sorted(WORKLOADS.items()):
    rounds = cls().rounds({seed})
    for _ in range(2):
        for item in next(rounds):
            print(name, item.text)
"""


def inputs(seed: int, hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    code = DUMP.format(bench=BENCH, seed=seed)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout


def graev_word(word):
    return Word(tuple(Letter(p, s) for p, s in word))


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        first = inputs(7, "1")
        self.assertGreater(len(first.splitlines()), 50)
        self.assertEqual(first, inputs(7, "2"))

    def test_other_seed_gives_other_inputs(self):
        self.assertNotEqual(inputs(7, "1"), inputs(8, "1"))

    def test_every_workload_has_rounds_of_one_shape(self):
        for name, cls in WORKLOADS.items():
            rounds = cls().rounds(3)
            sizes = {len(next(rounds)) for _ in range(3)}
            self.assertEqual(len(sizes), 1, name)


class ReferenceNorm(unittest.TestCase):
    def test_equals_bruteforce_on_every_star2_word_up_to_6_letters(self):
        space, graev_space = ref.star(2), star_space(2)
        letters = [(p, s) for p in space.generators for s in (1, -1)]
        count = 0
        for k in range(7):
            for word in itertools.product(letters, repeat=k):
                self.assertEqual(ref.norm(word, space), norm_bruteforce(graev_word(word), graev_space), word)
                count += 1
        self.assertEqual(count, sum(4**k for k in range(7)))

    def test_equals_bruteforce_on_seeded_interval_words_up_to_8_letters(self):
        rng = random.Random("reference-interval")
        for _ in range(300):
            word = tuple(
                (Fraction(rng.randint(0, d), d), rng.choice((1, -1))) for d in (rng.randint(1, 10) for _ in range(rng.randint(0, 8)))
            )
            self.assertEqual(ref.norm(word, ref.INTERVAL), norm_bruteforce(graev_word(word), INTERVAL), word)

    def test_tie_rule_matching_is_the_one_norm_dp_recovers(self):
        rng = random.Random("tie-rule")
        spaces = ((ref.INTERVAL, INTERVAL), (ref.star(3), star_space(3)), (ref.chain(4), chain_space(4)))
        for ours, theirs in spaces:
            for k in (1, 2, 5, 12, 24):
                for _ in range(5):
                    word = tuple(
                        (rng.choice(ours.generators) if ours.generators else Fraction(rng.randint(1, 7), 7), rng.choice((1, -1)))
                        for _ in range(k)
                    )
                    value, matching = norm_dp(graev_word(word), theirs)
                    self.assertEqual(ref.tie_rule_matching(word, ours), matching.map)
                    self.assertEqual(ref.norm(word, ours), value)
                    self.assertIsNone(ref.matching_failure(word, ours, matching.map, value))

    def test_matching_check_rejects_crossing_chords_and_wrong_costs(self):
        word = (("e1", 1), ("e2", 1), ("e1", -1), ("e2", -1))
        star = ref.star(2)
        self.assertIn("crossing", ref.matching_failure(word, star, (3, 4, 1, 2), Fraction(0)))
        self.assertIsNone(ref.matching_failure(word, star, (3, 2, 1, 4), Fraction(2)))
        self.assertIn("costs", ref.matching_failure(word, star, (3, 2, 1, 4), Fraction(1)))


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


class SelfTime(unittest.TestCase):
    def test_self_time_is_duration_minus_direct_children(self):
        # op [0, 10] -> search [1, 6] -> concat [2, 3], concat [3, 5]; op -> suite.norm [7, 9]
        tracer = spans.Tracer(clock=FakeClock(0, 1, 2, 3, 3, 5, 6, 7, 9, 10))
        tracer.op = 0
        tracer.enter("op")
        tracer.enter("certificates.search_power_certificate@certificates")
        for _ in range(2):
            tracer.enter("words.concat@certificates")
            tracer.exit()
        tracer.exit()
        tracer.enter("suite.norm@SELECTIONS")
        tracer.exit()
        tracer.exit()
        by_name = {s["name"]: s for s in tracer.spans}
        self.assertEqual(by_name["op"]["self_s"], 3)
        self.assertEqual(by_name["certificates.search_power_certificate@certificates"]["self_s"], 2)
        self.assertEqual(by_name["suite.norm@SELECTIONS"]["self_s"], 2)
        self.assertEqual(by_name["suite.norm@SELECTIONS"]["parent"], by_name["op"]["id"])
        self.assertEqual(by_name["certificates.search_power_certificate@certificates"]["parent"], by_name["op"]["id"])
        self.assertEqual(tracer.aggregates[0]["words.concat@certificates"], [2, 3, 3])
        flat = tracer.flat()
        self.assertEqual(flat["op"], [1, 10, 3])
        self.assertEqual(sum(entry[2] for entry in flat.values()), 10)

    def test_merge_keeps_parents_and_sums_aggregates(self):
        child = spans.Tracer(clock=FakeClock(0, 1, 2, 4))
        child.run_op(0, lambda: (child.enter("cli.main@cli"), child.exit()))
        child.aggregates[0] = {"rationals.parse_rational@words": [2, 0.5, 0.5]}
        parent = spans.Tracer()
        parent.merge(5, json.loads(json.dumps(child.dump())))
        parent.merge(6, json.loads(json.dumps(child.dump())))
        self.assertEqual(parent.flat()["rationals.parse_rational@words"], [4, 1.0, 1.0])
        second_main = parent.spans[3]
        self.assertEqual((second_main["op"], second_main["parent"]), (6, 2))


class Instrument(unittest.TestCase):
    def test_wraps_bound_names_and_undo_restores_them(self):
        import graev.certificates as certificates
        import graev.words as words

        original = certificates.concat
        tracer = spans.Tracer()
        undo = spans.instrument(tracer, {"certificates": certificates, "words": words})
        try:
            self.assertIsNot(certificates.concat, original)
            target = graev_word((("e1", 1),) * 3)
            tracer.run_op(0, lambda: certificates.search_power_certificate(target, Fraction(2), 3, 1, 1, star_space(3)))
        finally:
            undo()
        self.assertIs(certificates.concat, original)
        counters = tracer.counter_totals()
        self.assertGreater(tracer.flat()["words.concat@certificates"][0], 0)
        self.assertGreater(counters["certificates.distinct_states"], 0)


class Tail(unittest.TestCase):
    def test_highest_listed_percentile_with_ten_ops_above(self):
        self.assertEqual(run.tail(list(range(1, 40)))[0], 50)
        self.assertEqual(run.tail(list(range(1, 41))), (75, 30))
        self.assertEqual(run.tail(list(range(1, 101))), (90, 90))
        self.assertEqual(run.tail(list(range(1, 200))), (90, 180))


if __name__ == "__main__":
    unittest.main()
