#!/usr/bin/env bash
# Smoke check for the observability exports: runs the Fig. 17 bench with
# --metrics-out (plus a trace and the provenance ledger), then validates
# the run-report JSON schema, the ledger JSONL, and the ledger/profile
# report sections; then runs the kernel bench and validates the
# align.kernel.* instruments and the BENCH_kernel.json sweep document;
# then runs the seeding bench and validates the seed.* instruments and
# the BENCH_seed.json sweep; then runs the thread-scaling bench and
# validates the threaded.* instruments (including the wakeup-audit
# invariant wakeups <= publishes + claims), the run report's `threading`
# section, and the BENCH_threads.json sweep; finally runs the
# CLI paired-end path (simulate --paired with shredded rescue-bait
# mates, threaded align -1/-2) and validates the `paired` report
# section, the run section's load_seconds and huge_page_mib, the
# threaded section's sink and reorder-window wait seconds, the
# seedex.paired.* instruments, the extension reconciliation identity
# filter.verdict.total == stage.extensions + paired.rescue_extensions,
# and the ledger's pair fields on every record.
#
# Usage: tools/check_metrics.sh [BUILD_DIR]     (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
BENCH="$BUILD_DIR/bench/bench_fig17_end_to_end"
KERNEL_BENCH="$BUILD_DIR/bench/bench_kernel"
SEED_BENCH="$BUILD_DIR/bench/bench_seed"
THREADS_BENCH="$BUILD_DIR/bench/bench_threads"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT
METRICS="$OUT_DIR/metrics.json"
TRACE="$OUT_DIR/trace.json"
LEDGER="$OUT_DIR/ledger.jsonl"
KERNEL_METRICS="$OUT_DIR/kernel_metrics.json"
KERNEL_SWEEP="$OUT_DIR/BENCH_kernel.json"
SEED_METRICS="$OUT_DIR/seed_metrics.json"
SEED_SWEEP="$OUT_DIR/BENCH_seed.json"
THREADS_METRICS="$OUT_DIR/threads_metrics.json"
THREADS_SWEEP="$OUT_DIR/BENCH_threads.json"
SEEDEX_CLI="$BUILD_DIR/src/apps/seedex"
PAIRED_METRICS="$OUT_DIR/paired_metrics.json"
PAIRED_LEDGER="$OUT_DIR/paired_ledger.jsonl"

for bin in "$BENCH" "$KERNEL_BENCH" "$SEED_BENCH" "$THREADS_BENCH" \
           "$SEEDEX_CLI"; do
    if [[ ! -x "$bin" ]]; then
        echo "check_metrics: $bin not built (run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
        exit 1
    fi
done

echo "== running $BENCH --quick --metrics-out=$METRICS"
"$BENCH" --quick "--metrics-out=$METRICS" "--trace-out=$TRACE" \
    "--ledger-out=$LEDGER" > /dev/null

[[ -s "$METRICS" ]] || { echo "FAIL: metrics file missing/empty" >&2; exit 1; }
[[ -s "$TRACE" ]] || { echo "FAIL: trace file missing/empty" >&2; exit 1; }
[[ -s "$LEDGER" ]] || { echo "FAIL: ledger file missing/empty" >&2; exit 1; }

echo "== grep-level schema checks"
for key in '"schema":"seedex.run_report/v1"' '"stage_seconds"' \
           '"pass_s2"' '"stage.extend.seconds"' '"p99"'; do
    grep -q "$key" "$METRICS" || { echo "FAIL: $key not in $METRICS" >&2; exit 1; }
done
grep -q '"traceEvents"' "$TRACE" || { echo "FAIL: no traceEvents in $TRACE" >&2; exit 1; }

echo "== structural checks (python json)"
python3 - "$METRICS" "$TRACE" "$LEDGER" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

assert report["schema"] == "seedex.run_report/v1", report["schema"]
assert report["bench"] == "bench_fig17_end_to_end"

pipeline = report["pipeline"]
stages = pipeline["stage_seconds"]
for stage in ("seeding", "extension", "other", "total"):
    assert isinstance(stages[stage], (int, float)), stage
assert stages["total"] > 0

flt = pipeline["filter"]
verdicts = ["pass_s2", "pass_checks", "fail_s1", "fail_e_score",
            "fail_edit_check", "fail_gscore_guard"]
verdict_sum = sum(flt[v] for v in verdicts)
assert verdict_sum == flt["total"], (verdict_sum, flt["total"])
# The acceptance identity: verdict counters sum to PipelineStats::extensions.
assert verdict_sum == pipeline["extensions"], \
    (verdict_sum, pipeline["extensions"])

hist = report["metrics"]["histograms"]["stage.extend.seconds"]
assert hist["count"] > 0
assert 0 < hist["p50"] <= hist["p90"] <= hist["p99"]

counters = report["metrics"]["counters"]
assert counters["filter.verdict.total"] >= flt["total"]

with open(sys.argv[2]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "empty trace"
assert any(e["ph"] == "X" for e in events)

# --- Provenance ledger: every JSONL line parses, and the per-read
# verdict tallies sum exactly to the SeedEx software run's filter
# verdicts (the run the ledger was enabled for).
ledger_keys = ("pass_s2", "pass_checks", "fail_s1", "fail_e_score",
               "fail_edit_check", "fail_gscore_guard")
records = []
with open(sys.argv[3]) as f:
    for n, line in enumerate(f, 1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as e:
            raise AssertionError(f"ledger line {n} malformed: {e}")
assert records, "empty ledger"
indexes = [r["read"] for r in records]
assert len(set(indexes)) == len(indexes), "duplicate read indexes"
for r in records:
    for field in ("read", "name", "seeds", "chains", "chain", "band",
                  "band_used", "kernel_calls", "extensions", "verdicts",
                  "reruns", "zdrops", "band_clips", "score", "mapped",
                  "kernel"):
        assert field in r, f"ledger record missing {field!r}"
for key in ledger_keys:
    tallied = sum(r["verdicts"][key] for r in records)
    assert tallied == flt[key], (key, tallied, flt[key])

# --- Ledger rollup section mirrors the JSONL.
led = report["ledger"]
assert led["records"] == len(records), (led["records"], len(records))
assert led["sample_every"] == 1
assert led["verdict_total"] == flt["total"]
for key in ledger_keys:
    assert led["verdicts"][key] == flt[key], key
assert led["reruns"] == sum(r["reruns"] for r in records)
assert 0.0 <= led["fallback_rate"] <= 1.0
band_hist_total = sum(b["count"] for b in led["band_used"])
assert band_hist_total == led["records"], band_hist_total

# --- Hardware-counter profile: available is a bool; when counters are
# open every exercised stage carries a positive IPC.
profile = report["profile"]
assert isinstance(profile["available"], bool)
assert isinstance(profile["stages"], dict)
if profile["available"]:
    exercised = {n: s for n, s in profile["stages"].items()
                 if s["scopes"] > 0}
    assert exercised, "perf available but no stage recorded a scope"
    for name, stage in exercised.items():
        assert stage["cycles"] > 0, name
        assert stage["ipc"] > 0, name

print(f"ok: {len(verdicts)} verdict counters sum to "
      f"{pipeline['extensions']} extensions; "
      f"extension latency p50={hist['p50']:.2e}s p99={hist['p99']:.2e}s; "
      f"{len(events)} trace events; ledger {len(records)} records "
      f"(fallback rate {led['fallback_rate']:.3f}); "
      f"perf available={profile['available']}")
EOF

echo "== running $KERNEL_BENCH --quick --metrics-out=$KERNEL_METRICS"
"$KERNEL_BENCH" --quick "--out=$KERNEL_SWEEP" \
    "--metrics-out=$KERNEL_METRICS" > /dev/null

[[ -s "$KERNEL_METRICS" ]] || { echo "FAIL: kernel metrics missing/empty" >&2; exit 1; }
[[ -s "$KERNEL_SWEEP" ]] || { echo "FAIL: kernel sweep missing/empty" >&2; exit 1; }

echo "== kernel instrument checks (python json)"
python3 - "$KERNEL_METRICS" "$KERNEL_SWEEP" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

assert report["schema"] == "seedex.run_report/v1", report["schema"]
assert report["bench"] == "bench_kernel"

# The run report names the resolved ISA and the compiled/supported tiers.
kernel = report["kernel"]
tiers = ("scalar", "sse", "avx2")
assert kernel["dispatch"] in tiers, kernel["dispatch"]
assert kernel["available"], "no kernel tiers listed"
assert all(t in tiers for t in kernel["available"]), kernel["available"]
assert kernel["dispatch"] in kernel["available"]
assert kernel["workspace_bytes"] > 0

counters = report["metrics"]["counters"]
# Per-tier dispatch counters exist; the dispatched tier's counter moved
# (the bench funnels a slice through the instrumented kswExtend path).
dispatch_total = sum(
    counters.get(f"align.kernel.dispatch.{t}", 0) for t in tiers)
assert dispatch_total > 0, "no instrumented kernel dispatches recorded"
assert counters.get(f"align.kernel.dispatch.{kernel['dispatch']}", 0) > 0
assert counters.get("align.kernel.cells", 0) > 0
assert "align.kernel.overflow_escape" in counters

# Per-tier latency histogram for the dispatched tier.
hists = report["metrics"]["histograms"]
hist = hists[f"align.kernel.{kernel['dispatch']}.seconds"]
assert hist["count"] > 0
assert hist["count"] == dispatch_total, (hist["count"], dispatch_total)

with open(sys.argv[2]) as f:
    sweep = json.load(f)
assert sweep["schema"] == "seedex.bench_sweep/v1", sweep.get("schema")
assert sweep["bench"] == "bench_kernel"
assert sweep["dispatch"] == kernel["dispatch"]
assert sweep["extension"], "empty extension sweep"
for cell in sweep["extension"] + sweep["gotoh"]:
    assert cell["isa"] in tiers
    assert cell["ns_per_extension"] > 0
    assert cell["gcells_per_s"] > 0
scalar_cells = [c for c in sweep["extension"] if c["isa"] == "scalar"]
assert scalar_cells, "sweep lacks the scalar baseline"

print(f"ok: kernel dispatch={kernel['dispatch']} "
      f"available={kernel['available']} "
      f"dispatches={dispatch_total} "
      f"cells={counters['align.kernel.cells']} "
      f"sweep={len(sweep['extension'])} extension cells")
EOF

echo "== running $SEED_BENCH --quick --metrics-out=$SEED_METRICS"
"$SEED_BENCH" --quick "--out=$SEED_SWEEP" \
    "--metrics-out=$SEED_METRICS" > /dev/null

[[ -s "$SEED_METRICS" ]] || { echo "FAIL: seed metrics missing/empty" >&2; exit 1; }
[[ -s "$SEED_SWEEP" ]] || { echo "FAIL: seed sweep missing/empty" >&2; exit 1; }

echo "== seeding instrument checks (python json)"
python3 - "$SEED_METRICS" "$SEED_SWEEP" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

assert report["schema"] == "seedex.run_report/v1", report["schema"]
assert report["bench"] == "bench_seed"

counters = report["metrics"]["counters"]
# Both drivers issue occ queries and extend unique matches by comparing
# against the index text; those are the only seeding counters.
seed_counters = {k for k in counters if k.startswith("seed.")}
assert seed_counters == {"seed.occ_calls", "seed.text_steps"}, seed_counters
assert counters["seed.occ_calls"] > 0, "seed.occ_calls never moved"
assert counters["seed.text_steps"] > 0, "seed.text_steps never moved"

gauges = report["metrics"]["gauges"]
# Largest batch size set by the batched configs (>= 1 even on --quick).
assert gauges["seed.batch_size"]["max"] >= 1, gauges

hists = report["metrics"]["histograms"]
hist = hists["seed.batch.seconds"]
assert hist["count"] > 0
assert 0 < hist["p50"] <= hist["p90"] <= hist["p99"]

with open(sys.argv[2]) as f:
    sweep = json.load(f)
assert sweep["schema"] == "seedex.bench_sweep/v1", sweep.get("schema")
assert sweep["bench"] == "bench_seed"
cells = sweep["cells"]
assert cells, "empty seeding sweep"
for cell in cells:
    assert cell["genome_bp"] > 0
    assert cell["reads"] > 0
    assert cell["reads_per_s"] > 0
    assert cell["batch"] >= 1
    assert cell["occ_calls_per_read"] > 0
    assert cell["text_steps_per_read"] > 0
    assert cell["speedup_vs_scalar"] > 0
    assert set(cell) == {"genome_bp", "reads", "config", "batch",
                         "seconds", "reads_per_s", "mbases_per_s",
                         "occ_calls_per_read", "text_steps_per_read",
                         "seeds", "speedup_vs_scalar"}, sorted(cell)
names = {c["config"] for c in cells}
# The sweep always carries the scalar baseline and the batch-16 headline
# config, and both drivers issue the same occ queries.
assert names == {"scalar", "batch"}, names
assert any(c["config"] == "batch" and c["batch"] == 16 for c in cells)
for genome in {c["genome_bp"] for c in cells}:
    occ = {c["occ_calls_per_read"] for c in cells if c["genome_bp"] == genome}
    assert len(occ) == 1, (genome, occ)
assert sweep["headline_speedup"] > 0

print(f"ok: seed.occ_calls={counters['seed.occ_calls']} "
      f"seed.text_steps={counters['seed.text_steps']} "
      f"batch latency p50={hist['p50']:.2e}s; "
      f"{len(cells)} sweep cells, "
      f"headline={sweep['headline_speedup']:.2f}x")
EOF

echo "== running $THREADS_BENCH --quick --metrics-out=$THREADS_METRICS"
"$THREADS_BENCH" --quick "--out=$THREADS_SWEEP" \
    "--metrics-out=$THREADS_METRICS" > /dev/null

[[ -s "$THREADS_METRICS" ]] || { echo "FAIL: threads metrics missing/empty" >&2; exit 1; }
[[ -s "$THREADS_SWEEP" ]] || { echo "FAIL: threads sweep missing/empty" >&2; exit 1; }

echo "== threading instrument checks (python json)"
python3 - "$THREADS_METRICS" "$THREADS_SWEEP" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

assert report["schema"] == "seedex.run_report/v1", report["schema"]
assert report["bench"] == "bench_threads"

# --- The `threading` section: batch-ring / slab-pool / reorder-buffer
# telemetry of the report's threaded run (the 8-thread cell).
thr = report["threading"]
assert thr["seeding_threads"] >= 1 and thr["fpga_threads"] >= 1
assert thr["batch_size"] >= 1
assert thr["producer_cpu_seconds"] > 0
assert thr["consumer_cpu_seconds"] > 0

queue = thr["queue"]
assert queue["publishes"] > 0
assert queue["publishes"] == queue["claims"], queue
# Help path: a seeding thread with a full shard claims a batch and runs
# the consumer stage itself — still one claim per publish, and helped
# batches are a subset of all consumed batches.
assert thr["batches"] == queue["claims"], (thr["batches"], queue)
assert 0 <= thr["helped_batches"] <= thr["batches"], thr
# The wakeup-audit invariant: one lock + at most one (counted) notify
# per publish/claim, so wakeups can never exceed publishes + claims.
assert queue["wakeups"] <= queue["publishes"] + queue["claims"], queue
assert queue["shards"] >= 1
assert queue["capacity_batches"] >= 1
assert 0 <= queue["avg_depth"] <= queue["max_depth"] <= \
    queue["shards"] * queue["capacity_batches"], queue

pool = thr["pool"]
# Every published batch came from the pool, one way or the other.
assert pool["hits"] + pool["misses"] == queue["publishes"], (pool, queue)
assert 0.0 <= pool["hit_rate"] <= 1.0

reorder = thr["reorder"]
assert reorder["retired"] == queue["publishes"], (reorder, queue)
assert reorder["max_pending"] >= 1

# --- Registry counters mirror the ring's own tallies across the whole
# process (>= the report's run: the sweep ran many cells).
counters = report["metrics"]["counters"]
for name in ("threaded.queue.publishes", "threaded.queue.claims",
             "threaded.queue.wakeups", "threaded.pool.hits",
             "threaded.pool.misses", "threaded.reorder.retired",
             "stage.reads", "stage.batches",
             "threaded.helped_batches"):
    assert name in counters, f"missing counter {name}"
assert counters["threaded.helped_batches"] <= counters["stage.batches"]
assert counters["threaded.queue.publishes"] >= queue["publishes"]
assert counters["threaded.queue.publishes"] == \
    counters["threaded.queue.claims"]
assert counters["threaded.queue.wakeups"] <= \
    counters["threaded.queue.publishes"] + \
    counters["threaded.queue.claims"]
assert counters["threaded.pool.hits"] + \
    counters["threaded.pool.misses"] == \
    counters["threaded.queue.publishes"]
assert counters["threaded.reorder.retired"] == \
    counters["threaded.queue.publishes"]

hists = report["metrics"]["histograms"]
hist = hists["stage.extend.seconds"]
assert hist["count"] == counters["stage.batches"]

# --- Sweep document: every cell bit-identical, sane ratio columns,
# and the ISSUE 7 headline (>= 2.5x modeled speedup at 8 threads).
with open(sys.argv[2]) as f:
    sweep = json.load(f)
assert sweep["schema"] == "seedex.bench_sweep/v1", sweep.get("schema")
assert sweep["bench"] == "bench_threads"
cells = sweep["cells"]
assert cells, "empty threading sweep"
for cell in cells:
    assert cell["threads"] >= 1 and cell["batch"] >= 1
    assert cell["identical_to_single_thread"] is True, cell
    assert cell["modeled_speedup"] > 0
    assert cell["handoff_ops_per_read"] > 0
    assert 0.0 <= cell["pool_hit_rate"] <= 1.0
assert {c["threads"] for c in cells} >= {1, 8}, "sweep lacks 1t/8t cells"
assert sweep["all_identical"] is True
assert sweep["modeled_speedup_8t"] >= 2.5, sweep["modeled_speedup_8t"]

print(f"ok: queue publishes={queue['publishes']} "
      f"helped={thr['helped_batches']} "
      f"wakeups={queue['wakeups']} (bound "
      f"{queue['publishes'] + queue['claims']}); "
      f"pool hit rate={pool['hit_rate']:.2f}; "
      f"reorder retired={reorder['retired']}; "
      f"{len(cells)} sweep cells, "
      f"modeled 8t speedup={sweep['modeled_speedup_8t']:.2f}x")
EOF

echo "== running $SEEDEX_CLI paired-end pipeline (4 threads)"
"$SEEDEX_CLI" simulate -o "$OUT_DIR/psim" --length=262144 --reads=2000 \
    --seed=77 --paired 2> /dev/null
python3 - "$OUT_DIR/psim_2.fq" <<'EOF'
# Shred every 10th R2 so the run exercises mate rescue (the shredded
# mate fails to seed-map but still extends from the anchor's window).
import sys
path = sys.argv[1]
with open(path) as f:
    lines = f.read().splitlines()
for rec in range(0, len(lines) // 4, 10):
    seq = list(lines[rec * 4 + 1])
    for i in range(5, len(seq), 12):
        seq[i] = {"A": "C", "C": "G", "G": "T", "T": "A"}.get(seq[i], "A")
    lines[rec * 4 + 1] = "".join(seq)
with open(path, "w") as f:
    f.write("\n".join(lines) + "\n")
EOF
"$SEEDEX_CLI" index "$OUT_DIR/psim.fa" -o "$OUT_DIR/psim.sdx" 2> /dev/null
"$SEEDEX_CLI" align "$OUT_DIR/psim.sdx" \
    -1 "$OUT_DIR/psim_1.fq" -2 "$OUT_DIR/psim_2.fq" \
    --threads=4 -o "$OUT_DIR/paired.sam" \
    "--metrics-out=$PAIRED_METRICS" "--ledger-out=$PAIRED_LEDGER" \
    2> /dev/null

[[ -s "$PAIRED_METRICS" ]] || { echo "FAIL: paired metrics missing/empty" >&2; exit 1; }
[[ -s "$PAIRED_LEDGER" ]] || { echo "FAIL: paired ledger missing/empty" >&2; exit 1; }

echo "== paired instrument checks (python json)"
python3 - "$PAIRED_METRICS" "$PAIRED_LEDGER" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

assert report["schema"] == "seedex.run_report/v1", report["schema"]

# --- The `paired` section: pair accounting + frozen insert model.
paired = report["paired"]
assert paired["pairs"] == 2000, paired["pairs"]
assert 0 < paired["proper"] <= paired["pairs"]
assert paired["rescues"] > 0, "shredded mates never rescued"
assert paired["rescue_attempts"] >= paired["rescues"]
assert paired["rescue_extensions"] >= paired["rescues"]
assert paired["rescue_passes"] <= paired["rescue_extensions"]
assert paired["insert_estimated"] is True
assert paired["insert_observations"] > 0
assert paired["insert_mean"] > 0 and paired["insert_sd"] > 0

counters = report["metrics"]["counters"]
for name in ("seedex.paired.pairs", "seedex.paired.proper",
             "seedex.paired.rescues", "seedex.paired.rescue_attempts",
             "seedex.paired.rescue_extensions",
             "seedex.paired.rescue_passes"):
    assert name in counters, f"missing counter {name}"
assert counters["seedex.paired.pairs"] == paired["pairs"]
assert counters["seedex.paired.proper"] == paired["proper"]
assert counters["seedex.paired.rescues"] == paired["rescues"]

# --- Every emitted record belongs to a pair; index load (read, verify
# and k-mer build of the .sdx) is timed apart from the alignment wall.
run = report["run"]
assert run["reads"] == 2 * paired["pairs"], (run["reads"], paired)
assert run["load_seconds"] > 0, run
# Whether the index arrays got 2 MiB pages: on every run, 0 where THP is
# off or /proc/self/smaps_rollup is missing.
assert "huge_page_mib" in run and run["huge_page_mib"] >= 0, run

# --- The CLI's `threaded` section: helped batches are a subset of all
# batches, and the stage CPU split covers device emulation.
thr = report["threaded"]
assert 0 <= thr["helped_batches"] <= thr["batches"], thr
assert thr["helped_batches"] == counters["threaded.helped_batches"], thr
assert thr["consumer_cpu_seconds"] >= thr["device_emulation_cpu_seconds"]
assert thr["producer_cpu_seconds"] > 0 and thr["consumer_cpu_seconds"] > 0
# The reorder window's serial section: time in the sink (under the
# window lock, so within one wall) and time threads waited on the
# window (summed over threads).
threads = thr["seeding_threads"] + thr["fpga_threads"]
wall = run["wall_seconds"]
for field in ("sink_seconds", "window_wait_seconds"):
    assert field in thr, f"threaded section lacks {field}"
assert 0 <= thr["sink_seconds"] <= wall, (thr, wall)
assert 0 <= thr["window_wait_seconds"] <= threads * wall, (thr, wall)

# --- Extension reconciliation: each verdict the filter issued came
# from a primary extension of the stage (the bootstrap slab's included)
# or from a mate-rescue extension, exactly once.
total = counters["filter.verdict.total"]
funnel = (counters["stage.extensions"] +
          counters["seedex.paired.rescue_extensions"])
assert total == funnel, (total, funnel)

# --- Ledger: every read record, the bootstrap slab's included, went
# through the stage's pair step, so pair fields and rescue totals match
# the process-wide counters exactly.
with open(sys.argv[2]) as f:
    records = [json.loads(line) for line in f if line.strip()]
assert len(records) == run["reads"], (len(records), run["reads"])
for rec in records:
    for field in ("paired", "proper", "pair_rescued",
                  "rescue_extensions"):
        assert field in rec, f"ledger record lacks {field}"
    assert rec["paired"] is True, rec
ledger_rescued = sum(1 for r in records if r["pair_rescued"])
ledger_rescue_ext = sum(r["rescue_extensions"] for r in records)
assert ledger_rescued == counters["seedex.paired.rescues"], \
    (ledger_rescued, counters["seedex.paired.rescues"])
assert ledger_rescue_ext == counters["seedex.paired.rescue_extensions"], \
    (ledger_rescue_ext, counters["seedex.paired.rescue_extensions"])

print(f"ok: pairs={paired['pairs']} proper={paired['proper']} "
      f"rescues={paired['rescues']} "
      f"(insert {paired['insert_mean']:.1f} "
      f"+/- {paired['insert_sd']:.1f} from "
      f"{paired['insert_observations']} obs); "
      f"verdicts {total} == stage {counters['stage.extensions']} "
      f"+ rescue {counters['seedex.paired.rescue_extensions']}")
EOF

echo "check_metrics: PASS"
