"""Self-test of the benchmark's checkers: planted wrong answers must fail.

    python3 perfbench/selftest.py

Needs only numpy; the lpn package is not imported.
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

K, ETA = 12, 0.125


def noisy_sample(target: int, m: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(m, K), dtype=np.uint8)
    flips = (rng.random(m) < ETA).astype(np.uint8)
    return bits, checks.dot_labels(bits, target) ^ flips


def hexvec(c: int, k: int = K) -> str:
    return c.to_bytes((k + 7) // 8, "little").hex()


def bkw_row(c_hat: int, target: int, used: int = 3 * 768) -> dict:
    return {"status": "recovered", "success": "true", "k": str(K),
            "c_hat": hexvec(c_hat), "target": hexvec(target),
            "examples_used": str(used)}


def instance_text(bits: np.ndarray, labels: np.ndarray, target: int) -> bytes:
    k = bits.shape[1]
    lines = [f"LPN v1 k={k} eta={ETA!r} seed=5 count={len(bits)}"]
    for row, lab in zip(bits, labels):
        lines.append(f"{bytes(np.packbits(row, bitorder='little')).hex()} {lab}")
    lines.append(f"TARGET {hexvec(target, k)}")
    return ("\n".join(lines) + "\n").encode("ascii")


class BkwCheck(unittest.TestCase):
    target = 0b101100111010

    def test_honest_row_passes(self):
        fresh = noisy_sample(self.target, 20_000)
        row = bkw_row(self.target, self.target)
        self.assertEqual(checks.check_bkw_row(row, K, 3, 8, ETA, fresh), [])

    def test_flipped_c_hat_bit_fails(self):
        row = bkw_row(self.target ^ (1 << 5), self.target)
        self.assertTrue(checks.check_bkw_row(row, K, 3, 8, ETA))

    def test_target_unrelated_to_stream_fails(self):
        fresh = noisy_sample(self.target ^ 1, 20_000)
        row = bkw_row(self.target, self.target)
        self.assertTrue(checks.check_bkw_row(row, K, 3, 8, ETA, fresh))

    def test_examples_not_whole_votes_fail(self):
        row = bkw_row(self.target, self.target, used=3 * 768 + 1)
        self.assertTrue(checks.check_bkw_row(row, K, 3, 8, ETA))

    def test_wrong_file_target_fails(self):
        row = bkw_row(self.target, self.target)
        self.assertTrue(checks.check_bkw_row(
            row, K, 3, 8, ETA, expect_target=self.target ^ 2))


class FileCheck(unittest.TestCase):
    def setUp(self):
        self.target = 0b110010101011
        self.bits, self.labels = noisy_sample(self.target, 300, seed=1)
        self.raw = instance_text(self.bits, self.labels, self.target)

    def reader_result(self, bits):
        return SimpleNamespace(k=K, eta=ETA, seed=5, bits=bits,
                               labels=self.labels.copy(),
                               target=SimpleNamespace(bits=self.target))

    def test_decoder_reads_what_was_written(self):
        dec = checks.decode_instance(self.raw)
        self.assertEqual(checks.check_decoded(dec, K, ETA, 5, 300), [])
        self.assertEqual(
            checks.compare_with_reader(dec, self.reader_result(self.bits)), [])

    def test_corrupted_decoded_row_fails(self):
        dec = checks.decode_instance(self.raw)
        dec.bits[17, 3] ^= 1
        self.assertTrue(
            checks.compare_with_reader(dec, self.reader_result(self.bits)))

    def test_nonzero_padding_is_rejected(self):
        head, rest = self.raw.split(b"\n", 1)
        bad = head + b"\n" + rest[:2] + b"f" + rest[3:]  # coords 13..16 of row 1
        with self.assertRaises(checks.DecodeError):
            checks.decode_instance(bad)

    def test_wrong_row_count_fails(self):
        dec = checks.decode_instance(self.raw)
        self.assertTrue(checks.check_decoded(dec, K, ETA, 5, 301))


class MleCheck(unittest.TestCase):
    def test_answer_worse_than_target_fails(self):
        target = 0b011011011011
        bits, labels = noisy_sample(target, 500, seed=2)
        good = {"status": "recovered", "examples_used": "500",
                "c_hat": hexvec(target)}
        self.assertEqual(checks.check_mle_row(good, bits, labels, target), [])
        bad = dict(good, c_hat=hexvec(target ^ 1))
        problems = checks.check_mle_row(bad, bits, labels, target)
        self.assertTrue(any("disagrees" in p for p in problems))


class SqChecks(unittest.TestCase):
    def test_mismatched_learned_parity_fails(self):
        row = {"target": "parity:1101", "learned": "parity:1101", "queries": "5"}
        self.assertEqual(checks.check_basis_row(row, 4), [])
        self.assertTrue(checks.check_basis_row(dict(row, learned="parity:1100"), 4))

    def test_reduce_estimate_and_weak_hypothesis(self):
        est = {"target": "parity:0100", "outcome": "estimate",
               "estimate": "0.5", "error_bound": "0.15"}
        self.assertEqual(checks.check_reduce_row(est, 0.05), [])
        self.assertTrue(checks.check_reduce_row(dict(est, estimate="0.7"), 0.05))
        weak = {"target": "parity:0000", "outcome": "weak_hypothesis",
                "hypothesis": "const:0", "advantage": "0.5"}
        self.assertEqual(checks.check_reduce_row(weak, 0.05), [])
        self.assertTrue(
            checks.check_reduce_row(dict(weak, target="parity:0010"), 0.05))

    def test_dim_needs_full_uncorrelated_class(self):
        row = {"d": "16", "max_abs_correlation": "0.0",
               "witness": ";".join(f"p{i}" for i in range(16))}
        self.assertEqual(checks.check_dim_row(row, 4), [])
        self.assertTrue(checks.check_dim_row(dict(row, d="15"), 4))


class OnlineCheck(unittest.TestCase):
    good = {"status": "completed", "count": "1000", "examples_used": "1000",
            "predicted": "865", "unknown": "135", "fill": "135",
            "capacity": "135", "max_vote_depth": "8", "errors": "0"}

    def test_honest_row_passes(self):
        self.assertEqual(
            checks.check_online_row(self.good, 3, 4, 3, 1000, noiseless=True), [])

    def test_unknown_above_capacity_fails(self):
        row = dict(self.good, predicted="864", unknown="136", fill="136")
        self.assertTrue(checks.check_online_row(row, 3, 4, 3, 1000, True))

    def test_errors_on_noiseless_stream_fail(self):
        row = dict(self.good, errors="1")
        self.assertTrue(checks.check_online_row(row, 3, 4, 3, 1000, True))


class TracerSelfTime(unittest.TestCase):
    def test_self_times_partition_the_root(self):
        tr = tracer.Tracer()
        for name, parent, t0, t1 in [("cli.main", -1, 0.0, 10.0),
                                     ("solvers.recover_target", 0, 1.0, 9.0),
                                     ("instance.draw_batch", 1, 2.0, 5.0),
                                     ("instance.draw_batch", 1, 6.0, 7.0)]:
            tr.name_of.append(tr._name(name))
            tr.parent.append(parent)
            tr.start.append(t0)
            tr.end.append(t1)
        tr.notes = {1: {"examples": 8, "votes": 2}, 2: {"examples": 5},
                    3: {"examples": 3}}
        self.assertEqual(tr.self_times(), [2.0, 4.0, 3.0, 1.0])
        m = tr.layer_metrics()
        self.assertEqual((m["cli.self_s"], m["solvers.recover_s"],
                          m["instance.draw_s"]), (2.0, 4.0, 4.0))
        self.assertEqual(m["instance.examples_drawn"], 8)
        self.assertEqual(m["solvers.examples_per_vote"], 4.0)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
