#!/usr/bin/env python3
"""End-to-end benchmark of `seedex align` (see perfbench/README.md).

    python3 perfbench/run.py --workload se_short_t4 --seed 1 \
        --seconds 20 --trace 0

Builds the `seedex` program from the repository's sources, prebuilds
each workload's `.sdx` index once, generates the workload's reads from
--seed, then runs the real `seedex align` command repeatedly for
--seconds and checks every run against the full-band oracle. With
--trace 1 it also re-runs the same configuration through
perfbench_trace and reports per-layer metrics instead. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
PROGRAM_BUILD = BUILD / "seedex"
PROGRAM = PROGRAM_BUILD / "src" / "apps" / "seedex"
TOOLS_BUILD = BUILD / "tools"
DATA = BUILD / "data"
RUNS = BUILD / "runs"

MIB = 1 << 20
MIN_REPS = 3
PROCESS_TIMEOUT_S = 120
JOBS = str(min(4, os.cpu_count() or 1))

# Genomes are pinned (their seed is not the run's --seed) so each index
# is built once per checkout; the reads are drawn from --seed.
GENOMES = {
    "g16": {"length": 16 << 20, "seed": 16},
    "g64": {"length": 64 << 20, "seed": 64},
}

WORKLOADS = {
    # Production case, seeding-bound: 101 bp Illumina-profile reads on
    # the large genome, 3 seeding + 1 extension thread.
    "se_short_t4": {"genome": "g64", "profile": "short",
                    "count": 150_000, "threads": 4},
    # Extension-bound: 250 bp reads at 5 % substitutions, 0.5 % small
    # indels and 5 % long-indel reads; extension is serialized behind
    # the device lock.
    "se_divergent_t4": {"genome": "g16", "profile": "divergent",
                        "count": 10_000, "threads": 4},
    # Default single-threaded paired path: insert bootstrap and mate
    # rescue (every 10th R2 shredded), no device lock.
    "pe_rescue_t1": {"genome": "g16", "profile": "pairs",
                     "count": 60_000, "threads": 1},
}

END_TO_END = {
    "reads_per_s": "reads/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "cpu_s_per_kread": "s/kread",
    "mapped_correct_frac": "fraction",
}

PER_LAYER = {
    "genome.parse_s": "s",
    "genome.parse_mib_per_s": "MiB/s",
    "fmindex.load_s": "s",
    "fmindex.occ_calls_per_read": "count",
    "fmindex.kmer_hits_per_read": "count",
    "aligner.seeding_s": "s",
    "aligner.seeding_us_per_read": "us",
    "aligner.seeds_per_read": "count",
    "aligner.chaining_s": "s",
    "aligner.chains_per_read": "count",
    "aligner.extension_s": "s",
    "aligner.extensions_per_read": "count",
    "aligner.postprocess_s": "s",
    "aligner.render_s": "s",
    "align.kernel_cells_per_read": "count",
    "align.kernel_calls_per_ext": "count",
    "align.gotoh_calls_per_read": "count",
    "seedex.filter_pass_frac": "fraction",
    "seedex.rerun_frac": "fraction",
    "seedex.band_escalations_per_ext": "count",
    "apps.write_s": "s",
    "apps.sam_mib": "MiB",
    "paired.bootstrap_s": "s",
    "paired.finalize_s": "s",
    "paired.rescue_attempts_per_kpair": "count",
    "paired.rescue_success_frac": "fraction",
    "paired.rescue_pass_frac": "fraction",
    "paired.proper_frac": "fraction",
    "threaded.producer_cpu_s": "s",
    "threaded.consumer_cpu_s": "s",
    "threaded.device_lock_s": "s",
    "threaded.idle_frac": "fraction",
    "threaded.source_s": "s",
    "threaded.sink_s": "s",
    "threaded.handoff_ops_per_read": "count",
    "threaded.pool_hit_frac": "fraction",
    "threaded.queue_max_depth": "count",
    "threaded.reorder_max_pending": "count",
    "hw.device_cycles_per_read": "cycles",
    "hw.jobs_per_batch": "count",
    "trace.wall_s": "s",
    "trace.layer_sum_frac": "fraction",
    "trace.overhead_frac": "fraction",
}

_children = []


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def program_env():
    """The caller's environment minus SEEDEX_* knobs, so every run uses
    the built-in configuration."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("SEEDEX_")}


def run_quiet(cmd, log_path):
    """Run a set-up command; on failure show its log tail and exit 1."""
    with open(log_path, "ab") as f:
        p = subprocess.Popen(cmd, stdout=f, stderr=subprocess.STDOUT,
                             env=program_env())
        _children.append(p)
        p.wait()
        _children.remove(p)
    if p.returncode != 0:
        tail = Path(log_path).read_bytes()[-4000:].decode(errors="replace")
        log(f"command failed ({p.returncode}): {' '.join(map(str, cmd))}"
            f"\n{tail}")
        sys.exit(1)


def cmake_build(source, build, targets):
    build.mkdir(parents=True, exist_ok=True)
    log_path = build / "perfbench-build.log"
    if not (build / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(source), "-B", str(build),
                   "-DCMAKE_BUILD_TYPE=Release"], log_path)
    run_quiet(["cmake", "--build", str(build), "-j", JOBS, "--target",
               *targets], log_path)


def build(trace):
    cmake_build(ROOT, PROGRAM_BUILD, ["seedex_bin"])
    tools = ["perfbench_corpus"] + (["perfbench_trace"] if trace else [])
    cmake_build(ROOT / "perfbench", TOOLS_BUILD, tools)


def prepare_genomes():
    """Generate every pinned genome and index it with `seedex index`,
    once per checkout (the first run pays for all workloads)."""
    DATA.mkdir(parents=True, exist_ok=True)
    for name, g in GENOMES.items():
        fasta, sdx = DATA / f"{name}.fa", DATA / f"{name}.sdx"
        if sdx.exists():
            continue
        log(f"preparing genome {name} ({g['length']} bp) and its index")
        run_quiet([str(TOOLS_BUILD / "perfbench_corpus"), "genome",
                   f"--length={g['length']}", f"--seed={g['seed']}",
                   "-o", str(fasta) + ".tmp"], DATA / "prepare.log")
        os.replace(str(fasta) + ".tmp", fasta)
        run_quiet([str(PROGRAM), "index", str(fasta), "-o",
                   str(sdx) + ".tmp"], DATA / "prepare.log")
        os.replace(str(sdx) + ".tmp", sdx)


def read_seed(workload, seed):
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def generate_reads(workload, seed, run_dir):
    """Write the workload's reads and truth sidecar; returns the read
    arguments of `seedex align`, the FASTQ paths and the truth path."""
    w = WORKLOADS[workload]
    prefix = run_dir / "reads"
    run_quiet([str(TOOLS_BUILD / "perfbench_corpus"), "reads",
               f"--ref={DATA / (w['genome'] + '.fa')}",
               f"--profile={w['profile']}", f"--count={w['count']}",
               f"--seed={read_seed(workload, seed)}", "-o", str(prefix)],
              run_dir / "corpus.log")
    if w["profile"] == "pairs":
        fastq = [Path(f"{prefix}_1.fq"), Path(f"{prefix}_2.fq")]
        args = ["-1", str(fastq[0]), "-2", str(fastq[1])]
    else:
        fastq = [Path(f"{prefix}.fq")]
        args = [str(fastq[0])]
    return args, fastq, Path(f"{prefix}.truth.tsv")


def measure(cmd, stderr_path):
    """Run one process to completion; returns (exit code, wall seconds,
    peak RSS in KiB, user + system CPU seconds) of that process alone."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                             env=program_env())
        timer = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, usage.ru_maxrss, \
        usage.ru_utime + usage.ru_stime


class Launcher:
    """Spawns the measured processes from a helper forked while the
    benchmark is still small. Linux carries a forked (or vforked) child's
    peak RSS over from its parent, so spawning `seedex align` from this
    process once it holds SAM files in memory would inflate peak_rss_mib
    by the benchmark's own footprint."""

    def __init__(self):
        cmd_r, cmd_w = os.pipe()
        res_r, res_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(cmd_w)
            os.close(res_r)
            self._serve(cmd_r, res_w)
        os.close(cmd_r)
        os.close(res_w)
        self._requests = os.fdopen(cmd_w, "w")
        self._replies = os.fdopen(res_r)

    @staticmethod
    def _serve(cmd_r, res_w):
        # Own process group, so kill() also stops a running measurement.
        os.setpgid(0, 0)
        try:
            with os.fdopen(cmd_r) as requests, \
                    os.fdopen(res_w, "w") as replies:
                for line in requests:
                    cmd, stderr_path = json.loads(line)
                    try:
                        result = measure(cmd, stderr_path)
                    except OSError as e:
                        Path(stderr_path).write_text(str(e))
                        result = (-1, 0.0, 0, 0.0)
                    replies.write(json.dumps(result) + "\n")
                    replies.flush()
        finally:
            os._exit(0)

    def measure(self, cmd, stderr_path):
        self._requests.write(json.dumps([cmd, str(stderr_path)]) + "\n")
        self._requests.flush()
        reply = self._replies.readline()
        if not reply:
            raise checks.CheckError("process launcher exited")
        return json.loads(reply)

    def kill(self):
        os.killpg(self.pid, signal.SIGKILL)

    def close(self):
        self._requests.close()
        os.waitpid(self.pid, 0)
        self._replies.close()


class Run:
    """One workload invocation: inputs, oracle and the timed repetitions."""

    def __init__(self, workload, seed, run_dir, launcher):
        self.launcher = launcher
        self.workload = workload
        self.w = WORKLOADS[workload]
        self.run_dir = run_dir
        self.sdx = DATA / f"{self.w['genome']}.sdx"
        self.read_args, self.fastq, self.truth_path = \
            generate_reads(workload, seed, run_dir)
        self.expected_reads = self.w["count"] * \
            (2 if self.w["profile"] == "pairs" else 1)
        self.attempted = 0
        self.failed = 0
        self.mapped_correct_frac = None
        self.sam = None
        self.oracle = self._oracle()

    def align_cmd(self, sam, report, options=None):
        if options is None:
            options = [f"--threads={self.w['threads']}"]
        return [str(PROGRAM), "align", str(self.sdx), *self.read_args,
                *options, "-o", str(sam), f"--metrics-out={report}"]

    def _oracle(self):
        sam = self.run_dir / "oracle.sam"
        cmd = self.align_cmd(sam, self.run_dir / "oracle.json",
                             ["--engine=fullband", "--threads=1"])
        code, _, _, _ = self.launcher.measure(cmd,
                                              self.run_dir / "oracle.err")
        if code != 0:
            raise checks.CheckError(f"oracle run exited {code}: "
                                    + (self.run_dir / "oracle.err")
                                    .read_text(errors="replace"))
        return sam.read_bytes()

    def untraced(self):
        """One `seedex align` run, checked against the oracle."""
        sam = self.run_dir / "out.sam"
        report = self.run_dir / "report.json"
        for p in (sam, report):
            p.unlink(missing_ok=True)
        code, wall, maxrss_kib, cpu_s = self.launcher.measure(
            self.align_cmd(sam, report), self.run_dir / "align.err")
        self.attempted += self.expected_reads
        data = sam.read_bytes() if sam.exists() else b""
        failed = self.expected_reads if code != 0 else \
            checks.compare_sam(data, self.oracle)
        self.failed += failed
        if code != 0 or failed:
            log(f"{self.workload}: exit {code}, {failed} reads differ "
                f"from the oracle")
            return None
        if self.sam is None:
            self.sam = data
            self.mapped_correct_frac = checks.mapped_correct(
                data, checks.read_truth(self.truth_path))
        summary = json.loads(report.read_text())["run"]
        reads = summary["reads"]
        rep = {
            "reads_per_s": reads / summary["wall_seconds"],
            "setup_s": wall - summary["wall_seconds"],
            "peak_rss_mib": maxrss_kib * 1024 / MIB,
            "cpu_s_per_kread": cpu_s / reads * 1000,
        }
        log(f"{self.workload}: " +
            " ".join(f"{k}={v:.6g}" for k, v in rep.items()))
        return rep

    def traced(self, untraced_rps):
        """One perfbench_trace run of the same configuration; returns
        its per-layer metrics."""
        sam = self.run_dir / "traced.sam"
        layers = self.run_dir / "layers.json"
        pg = " ".join(self.align_cmd(self.run_dir / "out.sam",
                                     self.run_dir / "report.json"))
        if self.w["profile"] == "pairs":
            inputs = [f"--r1={self.fastq[0]}", f"--r2={self.fastq[1]}"]
        else:
            inputs = [f"--reads={self.fastq[0]}"]
        cmd = [str(TOOLS_BUILD / "perfbench_trace"), f"--sdx={self.sdx}",
               *inputs, f"--threads={self.w['threads']}", f"--pg={pg}",
               "-o", str(sam), f"--json={layers}"]
        code, _, _, _ = self.launcher.measure(cmd,
                                              self.run_dir / "trace.err")
        self.attempted += self.expected_reads
        if code != 0:
            self.failed += self.expected_reads
            raise checks.CheckError(
                f"traced run exited {code}: " +
                (self.run_dir / "trace.err").read_text(errors="replace"))
        traced = sam.read_bytes()
        if traced != self.sam:
            self.failed += checks.compare_sam(traced, self.oracle) or \
                self.expected_reads
            raise checks.CheckError("traced SAM bytes differ from the "
                                    "untraced run's")
        return layer_metrics(json.loads(layers.read_text()), len(traced),
                             sum(p.stat().st_size for p in self.fastq),
                             untraced_rps)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t, sam_bytes, fastq_bytes, untraced_rps):
    """Per-layer metrics from one perfbench_trace JSON document."""
    def counter(name):
        return t.get("counter." + name, 0)

    def layer(name):
        return t.get("layer." + name, 0.0)

    reads = t["reads"]
    wall = t["wall_s"]
    passes = counter("filter.verdict.pass_s2") + \
        counter("filter.verdict.pass_checks")
    m = {}
    if t["threads"] > 1:
        # The pipeline's threads are opaque from outside: layer times come
        # from its per-role CPU accounting and the timed callbacks.
        producer = t["threaded.producer_cpu_s"]
        consumer = t["threaded.consumer_cpu_s"]
        lock = t["threaded.device_lock_s"]
        extensions = t["threaded.extensions"]
        primary = extensions
        reruns = t["threaded.reruns"]
        m["aligner.seeding_s"] = producer - layer("threaded.source")
        m["aligner.chaining_s"] = 0.0
        m["aligner.extension_s"] = lock
        m["aligner.postprocess_s"] = consumer - lock - layer("threaded.sink")
        busy = _ratio(producer + consumer,
                      t["threaded.threads"] * t["threaded.wall_s"])
        m["trace.layer_sum_frac"] = busy
        m["threaded.idle_frac"] = 1.0 - busy
    else:
        extensions = t["engine_extensions"]
        primary = t["primary_extensions"]
        reruns = extensions - passes
        for name in ("seeding", "chaining", "extension", "postprocess"):
            m[f"aligner.{name}_s"] = layer("aligner." + name)
        busy = {k[len("layer."):]: v for k, v in t.items()
                if k.startswith("layer.")}
        m["trace.layer_sum_frac"] = checks.check_layer_sum(busy, wall)
        m["threaded.idle_frac"] = 0.0
    pairs = counter("seedex.paired.pairs")
    attempts = counter("seedex.paired.rescue_attempts")
    dispatch = sum(v for k, v in t.items()
                   if k.startswith("counter.align.kernel.dispatch."))
    m.update({
        "genome.parse_s": layer("genome.parse"),
        "genome.parse_mib_per_s":
            _ratio(fastq_bytes / MIB, layer("genome.parse")),
        "fmindex.load_s": t["load_s"],
        "fmindex.occ_calls_per_read": counter("seed.occ_calls") / reads,
        "fmindex.kmer_hits_per_read": counter("seed.kmer_hits") / reads,
        "aligner.seeding_us_per_read": m["aligner.seeding_s"] / reads * 1e6,
        "aligner.seeds_per_read": _ratio(t["seeds"], t["counted_reads"]),
        "aligner.chains_per_read": _ratio(t["chains"], t["counted_reads"]),
        "aligner.extensions_per_read": primary / reads,
        "aligner.render_s": layer("aligner.render"),
        "align.kernel_cells_per_read":
            counter("align.kernel.cells") / reads,
        "align.kernel_calls_per_ext": _ratio(dispatch, extensions),
        "align.gotoh_calls_per_read":
            t.get("histogram_count.align.kernel.gotoh.seconds", 0) / reads,
        "seedex.filter_pass_frac":
            _ratio(passes, counter("filter.verdict.total")),
        "seedex.rerun_frac": _ratio(reruns, extensions),
        "seedex.band_escalations_per_ext":
            _ratio(counter("seedex.band.escalations"), extensions),
        "apps.write_s": layer("apps.write"),
        "apps.sam_mib": sam_bytes / MIB,
        "paired.bootstrap_s": layer("paired.bootstrap"),
        "paired.finalize_s": layer("paired.finalize"),
        "paired.rescue_attempts_per_kpair": _ratio(attempts * 1000, pairs),
        "paired.rescue_success_frac":
            _ratio(counter("seedex.paired.rescues"), attempts),
        "paired.rescue_pass_frac":
            _ratio(counter("seedex.paired.rescue_passes"),
                   counter("seedex.paired.rescue_extensions")),
        "paired.proper_frac":
            _ratio(counter("seedex.paired.proper"), pairs),
        "threaded.producer_cpu_s": t["threaded.producer_cpu_s"],
        "threaded.consumer_cpu_s": t["threaded.consumer_cpu_s"],
        "threaded.device_lock_s": t["threaded.device_lock_s"],
        "threaded.source_s": layer("threaded.source"),
        "threaded.sink_s": layer("threaded.sink"),
        "threaded.handoff_ops_per_read":
            (t["threaded.queue_publishes"] + t["threaded.queue_claims"])
            / reads,
        "threaded.pool_hit_frac": t["threaded.pool_hit_frac"],
        "threaded.queue_max_depth": t["threaded.queue_max_depth"],
        "threaded.reorder_max_pending": t["threaded.reorder_max_pending"],
        "hw.device_cycles_per_read": t["threaded.device_cycles"] / reads,
        "hw.jobs_per_batch": _ratio(counter("device.jobs"),
                                    counter("device.batches")),
        "trace.wall_s": wall,
        "trace.overhead_frac": 1.0 - (reads / wall) / untraced_rps,
    })
    return m


def medians(samples):
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def bench(run, seconds, trace):
    """Repeat the checked untraced run (and with `trace` the traced run)
    for `seconds`, at least MIN_REPS times; returns median metrics, or
    None when any run failed its check."""
    untraced, traced = [], []
    start = time.monotonic()
    rep_s = 0.0
    while True:
        t0 = time.monotonic()
        rep = run.untraced()
        if rep is None:
            return None
        untraced.append(rep)
        if trace:
            rps = statistics.median(r["reads_per_s"] for r in untraced)
            traced.append(run.traced(rps))
        rep_s = max(rep_s, time.monotonic() - t0)
        if len(untraced) >= MIN_REPS and \
                time.monotonic() - start + rep_s > seconds:
            break
    if trace:
        return medians(traced)
    metrics = medians(untraced)
    metrics["mapped_correct_frac"] = run.mapped_correct_frac
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src").is_dir():
        log(f"no seedex sources under {ROOT}; run from a repository "
            "checkout")
        return 2
    build(args.trace)
    prepare_genomes()

    run_dir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    run, metrics = None, None
    launcher = Launcher()
    try:
        run = Run(args.workload, args.seed, run_dir, launcher)
        metrics = bench(run, args.seconds, args.trace)
    except checks.CheckError as e:
        log(f"CHECK FAILED: {e}")
    except BaseException:
        launcher.kill()
        raise
    finally:
        launcher.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    if metrics is None or run.failed:
        attempted = max(1, run.attempted if run else 0)
        failed = max(1, run.failed if run else 0)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": min(failed, attempted), "metrics": {}}))
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    for name in units:
        print(f"{args.workload:16s} {name:34s} {metrics[name]:16.6f} "
              f"{units[name]}")
    if not args.trace:
        print(f"{args.workload:16s} {'failed_frac':34s} "
              f"{run.failed / run.attempted:16.6f} fraction")
    print(json.dumps({
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        for child in list(_children):
            child.kill()
            child.wait()
