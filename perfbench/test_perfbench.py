"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The corpus test builds perfbench_corpus into .bench_build if needed.
"""

import json
import tempfile
import unittest
from pathlib import Path

import checks
import run

HEADER = (b"@HD\tVN:1.6\tSO:unsorted\n"
          b"@SQ\tSN:sim\tLN:1000\n"
          b"@PG\tID:seedex\tPN:seedex\tVN:0.8.0\tCL:seedex align a b\n")
RECORDS = [
    b"r0\t0\tsim\t101\t60\t10S91M\t*\t0\t0\tACGT\t*\tAS:i:91\tXS:i:0",
    b"r1\t16\tsim\t301\t60\t101M\t*\t0\t0\tACGT\t*\tAS:i:101\tXS:i:0",
    b"r2\t4\t*\t0\t0\t*\t*\t0\t0\tACGT\t*\tAS:i:0\tXS:i:0",
]


def sam(records, header=HEADER):
    return header + b"".join(r + b"\n" for r in records)


def with_field(record, index, value):
    fields = record.split(b"\t")
    fields[index] = value
    return b"\t".join(fields)


class OracleComparator(unittest.TestCase):
    def test_identical_output_passes(self):
        self.assertEqual(checks.compare_sam(sam(RECORDS), sam(RECORDS)), 0)

    def test_pg_line_is_ignored(self):
        other = HEADER.replace(b"CL:seedex align a b", b"CL:other command")
        self.assertEqual(
            checks.compare_sam(sam(RECORDS, other), sam(RECORDS)), 0)

    def test_single_changed_pos_is_flagged(self):
        changed = [RECORDS[0], with_field(RECORDS[1], 3, b"302"), RECORDS[2]]
        self.assertEqual(checks.compare_sam(sam(changed), sam(RECORDS)), 1)

    def test_single_changed_cigar_is_flagged(self):
        changed = [with_field(RECORDS[0], 5, b"11S90M"), *RECORDS[1:]]
        self.assertEqual(checks.compare_sam(sam(changed), sam(RECORDS)), 1)

    def test_missing_and_malformed_records_fail(self):
        self.assertEqual(
            checks.compare_sam(sam(RECORDS[:2]), sam(RECORDS)), 1)
        broken = [RECORDS[0], b"r1\tnot-a-flag", RECORDS[2]]
        self.assertEqual(checks.compare_sam(sam(broken), sam(RECORDS)), 1)

    def test_truncated_output_fails_every_read(self):
        truncated = sam(RECORDS)[:-5]
        self.assertEqual(checks.compare_sam(truncated, sam(RECORDS)), 3)


class Placement(unittest.TestCase):
    def test_unclipped_start_and_strand_against_truth(self):
        truth = {(b"r0", 0): (90, False), (b"r1", 0): (300, False),
                 (b"r2", 0): (500, False)}
        # r0: POS 101 minus 10 clipped bases is the origin; r1 maps to the
        # wrong strand; r2 is unmapped.
        self.assertAlmostEqual(checks.mapped_correct(sam(RECORDS), truth),
                               1 / 3)


def single_threaded_trace():
    """A perfbench_trace document of a single-threaded run whose layers
    sum exactly to its wall time."""
    layers = {"genome.parse": 0.1, "aligner.seeding": 2.0,
              "aligner.chaining": 0.1, "aligner.extension": 0.3,
              "aligner.postprocess": 0.2, "paired.bootstrap": 0.01,
              "paired.finalize": 0.19, "aligner.render": 0.05,
              "apps.write": 0.05}
    doc = {"load_s": 0.5, "wall_s": sum(layers.values()), "threads": 1,
           "reads": 1000, "seeds": 1100, "chains": 990,
           "counted_reads": 1000, "primary_extensions": 500,
           "engine_extensions": 550,
           "counter.filter.verdict.total": 550,
           "counter.filter.verdict.pass_s2": 540,
           "counter.seedex.paired.pairs": 500,
           "counter.seedex.paired.rescue_attempts": 50,
           "threaded.wall_s": 0, "threaded.extensions": 0,
           "threaded.reruns": 0, "threaded.device_cycles": 0,
           "threaded.producer_cpu_s": 0, "threaded.consumer_cpu_s": 0,
           "threaded.device_lock_s": 0, "threaded.threads": 0,
           "threaded.queue_publishes": 0, "threaded.queue_claims": 0,
           "threaded.queue_max_depth": 0, "threaded.pool_hit_frac": 0,
           "threaded.reorder_max_pending": 0}
    doc.update({"layer." + k: v for k, v in layers.items()})
    return doc


def threaded_trace():
    doc = single_threaded_trace()
    doc.update({"threads": 4, "threaded.wall_s": 2.0,
                "threaded.extensions": 600, "threaded.reruns": 20,
                "threaded.producer_cpu_s": 5.0,
                "threaded.consumer_cpu_s": 2.0,
                "threaded.device_lock_s": 1.5, "threaded.threads": 4,
                "layer.threaded.source": 0.1, "layer.threaded.sink": 0.2})
    return doc


class LayerSum(unittest.TestCase):
    def test_complete_layers_pass(self):
        metrics = run.layer_metrics(single_threaded_trace(), 1 << 20,
                                    1 << 20, 400.0)
        self.assertAlmostEqual(metrics["trace.layer_sum_frac"], 1.0)

    def test_dropping_any_layer_trips_the_check(self):
        doc = single_threaded_trace()
        for key in [k for k in doc if k.startswith("layer.")]:
            if doc[key] < checks.LAYER_SUM_TOLERANCE * doc["wall_s"]:
                continue
            dropped = {k: v for k, v in doc.items() if k != key}
            with self.subTest(dropped=key):
                with self.assertRaises(checks.CheckError):
                    run.layer_metrics(dropped, 1 << 20, 1 << 20, 400.0)


class MetricSpec(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.spec = spec

    def declared(self, section):
        return {m["name"]: m["unit"] for m in self.spec[section]}

    def test_end_to_end_names_and_units(self):
        self.assertEqual(run.END_TO_END, self.declared("end_to_end"))

    def test_per_layer_names_and_units(self):
        self.assertEqual(run.PER_LAYER, self.declared("per_layer"))

    def test_every_trace_shape_emits_exactly_the_per_layer_metrics(self):
        for doc in (single_threaded_trace(), threaded_trace()):
            metrics = run.layer_metrics(doc, 1 << 20, 1 << 20, 400.0)
            self.assertEqual(set(metrics), set(run.PER_LAYER))

    def test_workloads_match(self):
        self.assertEqual(set(run.WORKLOADS),
                         {w["name"] for w in self.spec["workloads"]})


class Corpus(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.cmake_build(run.ROOT / "perfbench", run.TOOLS_BUILD,
                        ["perfbench_corpus"])

    def generate(self, out, seed, profile):
        tool = str(run.TOOLS_BUILD / "perfbench_corpus")
        run.run_quiet([tool, "genome", "--length=200000", "--seed=5",
                       "-o", str(out / "g.fa")], out / "log")
        run.run_quiet([tool, "reads", f"--ref={out / 'g.fa'}",
                       f"--profile={profile}", "--count=500",
                       f"--seed={seed}", "-o", str(out / "r")], out / "log")
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.name != "log"}

    def test_same_seed_gives_identical_bytes(self):
        for profile in ("short", "divergent", "pairs"):
            with tempfile.TemporaryDirectory(dir=run.BUILD) as a, \
                    tempfile.TemporaryDirectory(dir=run.BUILD) as b, \
                    tempfile.TemporaryDirectory(dir=run.BUILD) as c:
                first = self.generate(Path(a), 7, profile)
                with self.subTest(profile=profile):
                    self.assertEqual(first, self.generate(Path(b), 7, profile))
                    other = self.generate(Path(c), 8, profile)
                    self.assertEqual(first["g.fa"], other["g.fa"])
                    self.assertNotEqual(first, other)


if __name__ == "__main__":
    unittest.main()
