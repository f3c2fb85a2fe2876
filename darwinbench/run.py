"""Darwin benchmark: one workload per run, or all of them.

    python3 darwinbench/run.py --workload interactive-directions \
        --seed 1 --seconds 20 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) with its unit and sample count, runs the correctness
checks, writes a report under ``.bench_work/reports/`` and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``. It exits
non-zero when any operation or check failed.

``--workload all`` runs every workload twice in child processes, untraced
under PYTHONHASHSEED=0 and traced under PYTHONHASHSEED=1, prints one
table, and checks that both runs produced identical rule digests.
Run it from the repository root; it builds nothing.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
NAMES = ("interactive-directions", "batch-professions", "treematch-musicians")
CHILD_TIMEOUT_S = 900
# The end-to-end metrics a run reports to BENCHMARK.json's gate.
# accept_ms_p50, query_ms_p95, session_s and error_rate are printed but
# not gated (README).
GATED = ("setup_s", "prepare_sents_per_s", "label_sents_per_s", "accept_ms_mean",
         "recall_at_budget", "driver_peak_rss_mb")


def report_path(workload: str, seed: int, trace: int) -> Path:
    return WORK / "reports" / f"{workload}-seed{seed}-trace{trace}.json"


def emit(ok: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def run_one(args) -> int:
    import sparkenv

    work = WORK / f"run-{os.getpid()}"
    sparkenv.prepare_process(ROOT, work)
    from workloads import WORKLOADS, Run

    spark = sparkenv.start_spark(work)
    try:
        run = Run(spark, WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), T_START)
        try:
            run.timed()
        except Exception:
            # Failed operations were counted and printed by Run.op.
            traceback.print_exc()
            emit(False, run.attempted, max(len(run.failures), 1), {})
            return 1
        run.check()
        e2e, samples = run.end_to_end()
        report = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "env": sparkenv.describe(spark),
                  "end_to_end": e2e, "samples": samples,
                  "sessions": run.session_records(),
                  "label_rules": run.label_rules,
                  "index_keys_checked": run.keys_checked,
                  "failures": run.failures}
        if args.trace:
            report["per_layer"] = run.per_layer()
            report["spans"] = run.tracer.dump()
        out = report_path(args.workload, args.seed, args.trace)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1))
    finally:
        sparkenv.stop_spark(spark)
        sparkenv.remove_work(work)

    per_layer = report.get("per_layer", {})
    for name, (value, unit) in e2e.items():
        print(f"{args.workload:24} {name:32} {value:14.4f} {unit:9} n={samples[name]}")
    for name, (value, unit) in per_layer.items():
        print(f"{args.workload:24} {name:32} {value:14.4f} {unit}")
    for s in report["sessions"]:
        print(f"{args.workload:24} session cls_seed={s['cls_seed']} digest={s['digest']} "
              f"rules={s['rules']} recall={s['recall']:.4f} {s['seconds']:.3f}s")
    ok = not run.failures
    shown = per_layer if args.trace else {k: e2e[k] for k in GATED}
    emit(ok, run.attempted, len(run.failures), shown)
    return 0 if ok else 1


def run_all(args) -> int:
    """Every workload, untraced and traced, in child processes."""
    rc = 0
    rows = []
    for name in NAMES:
        reports = {}
        for trace, hashseed in ((0, "0"), (1, "1")):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                                  stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(proc.stdout)
                print(f"[darwinbench] {name} trace={trace} exited {proc.returncode}")
                rc = 1
                continue
            reports[trace] = json.loads(report_path(name, args.seed, trace).read_text())
        if len(reports) < 2:
            continue
        e2e, samples = reports[0]["end_to_end"], reports[0]["samples"]
        for metric, (value, unit) in e2e.items():
            rows.append((name, metric, value, unit, f"n={samples[metric]}"))
        for metric, (value, unit) in reports[1]["per_layer"].items():
            rows.append((name, metric, value, unit, "traced"))
        prep0 = 1 / e2e["prepare_sents_per_s"][0]
        prep1 = 1 / reports[1]["end_to_end"]["prepare_sents_per_s"][0]
        rows.append((name, "trace.prepare_overhead_frac", prep1 / prep0 - 1, "fraction",
                     "traced/untraced"))
        a = {s["cls_seed"]: s["digest"] for s in reports[0]["sessions"]}
        b = {s["cls_seed"]: s["digest"] for s in reports[1]["sessions"]}
        common = sorted(a.keys() & b.keys())
        same = all(a[k] == b[k] for k in common) and common
        print(f"[darwinbench] {name}: rule digests under PYTHONHASHSEED 0 vs 1 "
              f"{'identical' if same else 'DIFFER'} over {len(common)} sessions")
        if not same:
            rc = 1
    print(f"{'workload':24} {'metric':36} {'value':>14} unit")
    for name, metric, value, unit, note in rows:
        print(f"{name:24} {metric:36} {value:14.4f} {unit:9} {note}")
    return rc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"[darwinbench] no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    # A terminated run still stops Spark and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
