"""Paper-workflow benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload scale_nw --seed 1 \\
        --seconds 36 --trace 0

``--workload all`` runs the three workloads in turn with one seed.

Run from the root of a source checkout (it imports ``src/repro``).
``--trace 0`` measures the workload untraced and prints every
end-to-end metric; ``--trace 1`` measures it untraced, runs it again
with the same seed under the benchmark's span wrappers, and prints
every per-layer metric (``BENCHMARK.json`` lists both sets). Human
lines go first; the last line of standard output is the JSON result.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analyze_reduce1", "scale_nw", "serve_mixed")
#: Fresh-interpreter set-ups timed per pipeline run (median reported).
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all three in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe_setup_s(args) -> list[float]:
    """Wall time of fresh interpreters that import and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=str(ROOT), timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def traced_layers(untraced, traced, tracer, args, out_dir: Path) -> dict:
    """Per-layer metrics of the traced pass; its spans are written out
    and its operations join the run's accounting."""
    import probes
    import tracing

    spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
    tracing.dump_records(tracer.records, str(spans_path))
    untraced.extra["spans"] = tracer.records
    untraced.extra["spans_path"] = spans_path
    untraced.tally.merge(traced.tally)
    layers = probes.layer_metrics(tracer.records)
    layers["serve.publish_to_live_ms"] = 0.0
    layers["serve.telemetry_records"] = 0.0
    return layers


def pipeline(wl, args, out_dir: Path) -> tuple:
    import tracing
    from stats import PeakMemory, source_key, with_children

    wl.build_inputs()
    with PeakMemory(lambda: with_children(os.getpid())) as memory:
        untraced = wl.run(args.seconds)
    untraced.metrics["peak_rss_mb"] = memory.peak_mb
    untraced.notes["peak_rss_mb"] = (
        f"peak summed PSS of this process and its workers, "
        f"{memory.samples} samples")
    for claim in wl.gated_claims(untraced, out_dir, source_key(ROOT)):
        untraced.check(claim.name, claim.ok, claim.detail)
    if not args.trace:
        times = probe_setup_s(args)
        untraced.metrics["setup_s"] = statistics.median(times)
        untraced.notes["setup_s"] = (
            f"median of {len(times)} fresh interpreters importing repro and "
            f"building the inputs")
        return untraced, untraced.metrics
    tracer = tracing.SpanTracer()
    traced = wl.run(args.seconds, tracer=tracer, count=1)
    untraced.check(
        "traced_output_identical", traced.fingerprint == untraced.fingerprint,
        "traced workflow output digest equals the untraced one")
    layers = traced_layers(untraced, traced, tracer, args, out_dir)
    # The first workflow in a process pays warm-up; compare the traced
    # (warm) one with the warm untraced ones when there are any.
    times = untraced.extra["workflow_times"]
    warm = statistics.median(times[1:] if len(times) > 1 else times)
    layers["obs.trace_overhead_ratio"] = traced.metrics["workflow_s"] / warm
    untraced.notes["obs.trace_overhead_ratio"] = (
        f"traced workflow_s / untraced workflow_s "
        f"({'warm' if len(times) > 1 else 'first, cold'} baseline)")
    return untraced, layers


def serve(wl, args, out_dir: Path) -> tuple:
    import tracing
    from repro.obs.telemetry import read_telemetry

    untraced = wl.run(args.seconds, setups=1 if args.trace else wl.SETUPS)
    if not args.trace:
        return untraced, untraced.metrics
    tracer = tracing.SpanTracer()
    traced = wl.run(args.seconds, tracer=tracer)
    shared = untraced.extra["replies"].keys() & traced.extra["replies"].keys()
    differ = sum(untraced.extra["replies"][k] != traced.extra["replies"][k]
                 for k in shared)
    untraced.check(
        "traced_output_identical",
        traced.fingerprint == untraced.fingerprint and differ == 0,
        f"fixtures identical; {differ} of {len(shared)} requests answered by "
        f"the same fit in both runs differ")
    for check in traced.checks:
        untraced.check("traced." + check.name, check.ok, check.detail)
    tracing.graft_server_spans(
        tracer, tracing.load_records(str(traced.extra["server_spans"])))
    layers = traced_layers(untraced, traced, tracer, args, out_dir)
    live = traced.extra["publish_to_live_s"]
    layers["serve.publish_to_live_ms"] = 1e3 * statistics.median(live)
    layers["serve.telemetry_records"] = float(
        len(read_telemetry(traced.extra["telemetry"])))
    layers["obs.trace_overhead_ratio"] = (
        untraced.metrics["serve_rps"] / traced.metrics["serve_rps"])
    untraced.notes["obs.trace_overhead_ratio"] = (
        "untraced serve_rps / traced serve_rps")
    return untraced, layers


def report(args, meta, result, values, units, out_dir: Path) -> bool:
    """Print the human lines and the final JSON; write the run record."""
    import probes

    correct = all(c.ok for c in result.checks)
    tally = result.tally
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} iterations={result.iterations}")
    print("meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        metrics[name] = {"value": value, "unit": unit}
        note = result.notes.get(name, "")
        print(f"  {name:<30} {value:>14.6g} {unit:<6} {note}")
    print(f"error_rate {tally.error_rate():.6g} = {tally.failed} failed / "
          f"{tally.attempted} attempted (success_ratio "
          f"{tally.success_ratio():.6g})")
    for line in tally.lines():
        print("  " + line)
    for key, note in sorted(result.notes.items()):
        if key.startswith("claim "):
            print(f"  {key} (at seed {args.seed}, reported): {note}")
    for check in result.checks:
        print(f"check {check.name}: {'ok' if check.ok else 'FAILED'} — "
              f"{check.detail}")
    if args.trace:
        records = result.extra["spans"]
        print("self time by span (largest first):")
        for name, self_s, total_s, count in probes.self_time_ranking(records)[:12]:
            print(f"  {name:<28} self {self_s:9.3f} s  total {total_s:9.3f} s"
                  f"  calls {count}")
        print("hot path: " + " <- ".join(probes.hot_path(records)))
        print(f"spans written to {result.extra['spans_path']}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "iterations": result.iterations,
        "meta": meta, "metrics": metrics, "notes": result.notes,
        "accounting": tally.to_dict(),
        "checks": [vars(c) for c in result.checks],
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return correct


def run_all(args) -> int:
    """Every workload in turn, each in its own process (so each reports
    its own peak RSS), with one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 3
        result = json.loads(lines[-1])
        code = max(code, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run it "
              f"from the root of a full source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    if args.workload == "serve_mixed":
        wl = workloads.ServeMixed(args.seed, work, import_s)
    else:
        cls = {"analyze_reduce1": workloads.AnalyzeReduce1,
               "scale_nw": workloads.ScaleNW}[args.workload]
        wl = cls(args.seed, work)
    if args.setup_probe:
        try:
            wl.build_inputs()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    from stats import run_metadata

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    units = declared_metrics()[args.trace]
    meta = run_metadata(ROOT, args.seed)
    try:
        runner = serve if args.workload == "serve_mixed" else pipeline
        result, values = runner(wl, args, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = dict(values)
    values["success_ratio"] = result.tally.success_ratio()
    correct = report(args, meta, result, values, units, out_dir)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
