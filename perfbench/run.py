"""persum benchmark: run one workload against the checkout's src/ and report.

    python3 perfbench/run.py --workload {table,query,analyze,cli,all} \
        --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it uses the persum under src/ next
to this directory and exits 2 if there is none. It needs nothing outside
the standard library.

The seed alone fixes the requests (workloads.py); persum receives only their
argv. One worker process at a time runs them in a closed loop for about
--seconds (worker.py); the oracles then check every answer outside the timed
region (oracles.py). Each op runs once per pass; its time is its fastest
pass in process, or its median pass for `cli`, whose subprocesses get only
two or three passes in a run. The percentiles and the throughput are taken
over those per-op times. Noise on a shared machine only ever adds time:
on a shared 2-core VM, other load slowed every op by up to half for
seconds or minutes at a time, and these statistics varied least from run
to run (README.md, "Noise").

--trace 0 reports the end-to-end metrics:
  setup_s           fastest of 20 timings of `import persum` in a fresh interpreter,
                    half before the workload and half after it
  throughput_ops_s  ops that pass the oracle, per second of their summed per-op times
  latency_p50_ms    median per-op time over the ops that pass
  latency_p90_ms    90th percentile of the same (>= 100 ops, so >= 10 beyond it)
  peak_rss_mb       ru_maxrss of the workload process, or of its children for cli
An op that fails, times out or answers wrong is left out of the latency and
throughput figures and counted in error_rate and in "failed". Only the
known --vec defect (workloads.hits_vec_defect) may fail: any other failed
or wrong op makes the run's "correct" false.

--trace 1 runs the workload untraced and then traced (tracing.py), both in
process and each for half of --seconds, then a sample of its ops as
subprocesses, and reports the
per-layer metrics, the process overhead and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Per-op records (N, l, largest integer bit length, bytes out, input
hash, every sample, the per-op time, status) go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

SETUP_SAMPLES = 20  # half before the workload, half after
OP_TIMEOUT_S = 15.0  # about fifty times the slowest op when the benchmark was written
HARD_CAP_S = {0: 110.0, 1: 45.0}  # per worker; keeps every run under 180 s
OVERHEAD_SAMPLE = 16

# Names, units and order of the metrics, as BENCHMARK.json lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS["error_rate"] = "ratio"
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


PROBE = (
    "import time; t = time.perf_counter(); import persum; "
    "print(time.perf_counter() - t, persum.__file__)"
)


def measure_setup(count: int, warm_up: bool) -> list[float]:
    """`import persum` timed in `count` fresh interpreters. With warm_up, one
    import that may write bytecode caches runs first and is not counted."""
    samples = []
    for i in range(count + warm_up):
        proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import persum failed: {proc.stderr.strip()}")
        seconds, path = proc.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"imported persum from {path.strip()}, not from {ROOT / 'src'}")
        if i or not warm_up:
            samples.append(float(seconds))
    return samples


def machine_check_ms() -> float:
    """A fixed pure-Python loop, timed to show how fast the machine runs now;
    printed beside the metrics, never folded into them."""
    start = time.perf_counter()
    total = 0
    for i in range(10**6):
        total += i
    return 1000 * (time.perf_counter() - start)


def run_worker(mode: str, ops: list, seconds: float, hard_cap: float, repeat: bool = True,
               spans_path: Path | None = None) -> dict:
    """Run ops in a fresh worker process; mode is inprocess, traced or subprocess.
    The first output of op i is left in WORK/<mode>/stdout-<i>.json."""
    work_dir = WORK / mode
    work_dir.mkdir(exist_ok=True)
    spec = {
        "mode": "inprocess" if mode == "traced" else mode,
        "ops": [{"argv": op.argv, "stdin": op.stdin, "out_path": op.out_path} for op in ops],
        "seconds": seconds,
        "hard_cap": hard_cap,
        "timeout": OP_TIMEOUT_S,
        "trace": mode == "traced",
        "repeat": repeat,
        "root": str(ROOT),
        "work_dir": str(work_dir),
        "spans_path": str(spans_path) if spans_path else None,
    }
    spec_path, result_path = work_dir / "spec.json", work_dir / "result.json"
    spec_path.write_text(json.dumps(spec))
    result_path.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
                          env=child_env(), cwd=ROOT, timeout=hard_cap + 2 * OP_TIMEOUT_S + 30)
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(result_path.read_text())


def op_time(samples: list[float], mode: str) -> float:
    """An op's time: its fastest pass in process, or the median of its passes
    as subprocesses, which get only two or three passes in a run."""
    return statistics.median(samples) if mode == "subprocess" else min(samples)


def evaluate(ops: list, result: dict, mode: str) -> list[dict]:
    """Per-op outcome: ok, failed (no answer) or wrong (an answer the oracle rejects)."""
    work_dir = WORK / mode
    outcomes = []
    for i, (op, recs) in enumerate(zip(ops, result["records"])):
        o = {"id": i, "kind": op.kind, "input_sha": op.input_sha()[:16], "N": op.meta["N"],
             "l": op.meta["l"], "max_bits": None,
             "bytes_out": recs[0][3] if recs else 0,
             "time_s": op_time([r[0] for r in recs], mode) if recs else None,
             "samples_s": [r[0] for r in recs],
             "known_defect": workloads.hits_vec_defect(op)}
        if not recs:
            o.update(status="failed", reason="not reached before the hard cap")
        elif any(r[1] != 0 for r in recs):
            o.update(status="failed", reason=result["errors"].get(str(i), "nonzero exit in a later pass"))
        elif len({r[2] for r in recs}) > 1:
            o.update(status="wrong", reason="output differs between passes")
        else:
            path = ROOT / op.out_path if op.out_path else work_dir / f"stdout-{i}.json"
            try:
                doc = json.loads(path.read_bytes())
            except (OSError, ValueError) as exc:
                o.update(status="wrong", reason=f"unreadable output: {exc}")
            else:
                reason = oracles.check(op, doc)
                o.update(status="wrong" if reason else "ok", reason=reason,
                         max_bits=oracles.max_int_bits(doc))
        outcomes.append(o)
    return outcomes


def ok_times(outcomes: list[dict]) -> list[float]:
    return sorted(o["time_s"] for o in outcomes if o["status"] == "ok")


def throughput(times: list[float]) -> float:
    return len(times) / sum(times)


def end_to_end(outcomes: list[dict], setup: list[float], peak_rss_kb: int) -> dict:
    times = ok_times(outcomes)
    if not times:
        raise BenchError("no op passed, so no latency can be reported")
    return {
        "setup_s": min(setup),
        "throughput_ops_s": throughput(times),
        "latency_p50_ms": 1000 * statistics.median(times),
        "latency_p90_ms": 1000 * times[math.ceil(0.9 * len(times)) - 1],
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def traced_outcomes(untraced: list[dict], base: dict, traced: dict) -> tuple[list[dict], int]:
    """Outcomes of the traced run, and how many ops it answered differently.
    An op passes when it exits 0 every time with the very output the oracle
    accepted in the untraced run."""
    out, wrong = [], 0
    for o, before, recs in zip(untraced, base["records"], traced["records"]):
        o = dict(o, time_s=op_time([r[0] for r in recs], "traced") if recs else None)
        if o["status"] == "ok":
            if not recs or any(r[1] != 0 for r in recs):
                o["status"] = "failed"
            elif {r[2] for r in recs} != {before[0][2]}:
                o["status"] = "wrong"
                wrong += 1
        out.append(o)
    return out, wrong


def layer_metrics(name: str, seed: int, seconds: float, ops: list, base: dict,
                  outcomes: list[dict], lines: list[str]) -> tuple[dict, int, int]:
    """The traced run, the process-overhead sample and the tracing overhead.
    Returns the per-layer metrics and how many ops that passed untraced the
    traced run answered differently and how many it failed."""
    spans_path = RESULTS / f"{name}-seed{seed}-spans.jsonl"
    traced = run_worker("traced", ops, seconds / 2, HARD_CAP_S[1], spans_path=spans_path)
    traced_ops, wrong = traced_outcomes(outcomes, base, traced)
    picked = list(range(0, len(ops), max(1, len(ops) // OVERHEAD_SAMPLE)))[:OVERHEAD_SAMPLE]
    sample = run_worker("subprocess", [ops[i] for i in picked], 0, 20.0, repeat=False)
    gaps = [recs[0][0] - outcomes[i]["time_s"] for i, recs in zip(picked, sample["records"])
            if recs and recs[0][1] == 0 and outcomes[i]["status"] == "ok"]
    untraced_tp = throughput(ok_times(outcomes))
    traced_tp = throughput(ok_times(traced_ops))
    metrics = dict(traced["layers"])
    metrics["cli.process_overhead_s"] = statistics.median(gaps) if gaps else 0.0
    metrics["trace.throughput_untraced_ops_s"] = untraced_tp
    metrics["trace.throughput_traced_ops_s"] = traced_tp
    metrics["trace.overhead_ratio"] = untraced_tp / traced_tp
    lost = sum(o["status"] == "failed" for o in traced_ops) - sum(o["status"] == "failed" for o in outcomes)
    lines.append(f"  traced: {traced['passes']} full passes, {lost} ops failed only when traced, "
                 f"{wrong} answered differently; process overhead over {len(gaps)} sampled ops; "
                 f"spans in {spans_path.relative_to(ROOT)}")
    return metrics, wrong, lost


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    ops = workloads.build(name, seed)
    loop_before = machine_check_ms()
    setup = measure_setup(SETUP_SAMPLES // 2, warm_up=True)
    mode = "subprocess" if name == "cli" and not trace else "inprocess"
    lines = [f"workload {name}  seed {seed}  trace {trace}  ops {len(ops)}  "
             f"inputs sha256 {workloads.inputs_sha(ops)}",
             f"  why: {WHY[name]}"]
    base = run_worker(mode, ops, seconds / 2 if trace else seconds, HARD_CAP_S[trace])
    outcomes = evaluate(ops, base, mode)
    setup += measure_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2, warm_up=False)
    metrics = end_to_end(outcomes, setup, base["peak_rss_kb"])
    wrong = sum(o["status"] == "wrong" for o in outcomes)
    failed = [o for o in outcomes if o["status"] == "failed"]
    lines.append(f"  {mode}, {base['passes']} full passes in {base['elapsed_s']:.1f} s; "
                 f"latency over {len(ok_times(outcomes))} passing ops, each timed by its "
                 f"{'median' if mode == 'subprocess' else 'fastest'} pass")
    report = dict(metrics, error_rate=(len(failed) + wrong) / len(ops))
    defect = sum(o["known_defect"] for o in failed)
    unexpected = len(failed) - defect  # failures other than the known --vec defect
    if trace:
        metrics, traced_wrong, traced_lost = layer_metrics(name, seed, seconds, ops, base, outcomes, lines)
        wrong += traced_wrong
        unexpected += traced_lost
        report.update(metrics)
    loop_after = machine_check_ms()
    lines.append(f"  machine check: a fixed 10^6-step loop took {loop_before:.1f} ms before "
                 f"and {loop_after:.1f} ms after the run")
    for key, value in report.items():
        lines.append(f"  {key:44s} {value:>16.6g} {UNITS[key]}")
    lines.append(f"  failed {len(failed)} (known --vec defect {defect}, other {len(failed) - defect}), "
                 f"wrong {wrong}, of {len(ops)} attempted")
    for o in outcomes:
        if o["status"] != "ok" and not o["known_defect"]:
            lines.append(f"  op {o['id']} {o['kind']} {o['status']}: {o['reason']}")
    record_path = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
    record_path.write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs_sha256": workloads.inputs_sha(ops), "setup_samples_s": setup,
        "machine_check_ms": [loop_before, loop_after],
        "metrics": report, "ops": outcomes}, indent=1))
    lines.append(f"  per-op records in {record_path.relative_to(ROOT)}")
    listed = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    if set(listed) != set(metrics):
        raise BenchError(f"metrics {sorted(set(listed) ^ set(metrics))} are not both listed and measured")
    return lines, {"correct": wrong == 0 and unexpected == 0, "attempted": len(ops), "failed": len(failed) + wrong,
                   "metrics": {k: metrics[k] for k in listed}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "persum" / "__init__.py").is_file():
        print(f"error: no persum package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            lines, result = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            summary["metrics"].update({prefix + k: {"value": v, "unit": UNITS[k]}
                                       for k, v in result["metrics"].items()})
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
