"""Self-tests of the benchmark: its oracles, its inputs and its output.

    python3 -m pytest perfbench -q

Each oracle must accept persum's answer and reject a corrupted one; a short
run of every workload must print every metric BENCHMARK.json names.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import persum.cli  # noqa: E402


def answer(op: workloads.Op) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert persum.cli.main(op.argv) == 0
    return json.loads(out.getvalue())


def rng() -> random.Random:
    return random.Random(7)


def test_table_oracle_rejects_one_flipped_coefficient():
    op = workloads.coeffs_op(rng(), (4, 6, 10), None)
    doc = answer(op)
    assert oracles.check(op, doc) is None
    l = int(doc["l"])
    for x, c in ((l + 3, 0), (1, 1)):  # a recurrence row, then the identity block
        bad = copy.deepcopy(doc)
        bad["rows"][x][c] = str(int(bad["rows"][x][c]) + 1)
        assert oracles.check(op, bad) is not None


def test_charpoly_oracle_rejects_a_wrong_coefficient():
    op = workloads.system_op("charpoly", [12, 18])
    doc = answer(op)
    assert oracles.check(op, doc) is None
    for i in range(len(doc["charpoly"]) - 1):
        bad = copy.deepcopy(doc)
        bad["charpoly"][i] = str(int(bad["charpoly"][i]) - 1)
        assert oracles.check(op, bad) is not None


def test_cover_oracle_rejects_one_changed_window_value():
    classes = [(0, 2), (1, 4), (3, 8), (7, 12), (5, 6)]
    op = workloads.cover_op(classes, ["--odd", "--check", "3", "1", "--gcd-window", "-5", "2"], False)
    doc = answer(op)
    assert oracles.check(op, doc) is None
    bad = copy.deepcopy(doc)
    bad["window"][2] = str(int(bad["window"][2]) + 1)
    assert oracles.check(op, bad) is not None
    bad = copy.deepcopy(doc)
    bad["gcd_window"]["value"] = str(int(bad["gcd_window"]["value"]) + 1)
    assert oracles.check(op, bad) is not None


@pytest.mark.parametrize("group", [("int",), ("mod", 1000003), ("vec", 3)])
def test_extrapolate_oracle_in_every_group(group):
    r = rng()
    op = workloads.extrapolate_op(r, (3, 4), group)
    while workloads.hits_vec_defect(op):
        op = workloads.extrapolate_op(r, (3, 4), group)
    doc = answer(op)
    assert oracles.check(op, doc) is None
    bad = copy.deepcopy(doc)
    if group[0] == "vec":
        bad["value"][1] = str(int(bad["value"][1]) + 1)
    else:
        bad["value"] = str(int(bad["value"]) + 1)
    assert oracles.check(op, bad) is not None


def test_spectrum_and_finewilf_oracles():
    op = workloads.system_op("spectrum", [6, 10])
    doc = answer(op)
    assert oracles.check(op, doc) is None
    bad = copy.deepcopy(doc)
    bad["elements"][1], bad["elements"][2] = bad["elements"][2], bad["elements"][1]
    assert oracles.check(op, bad) is not None
    op = workloads.finewilf_op(rng(), 4, 6)
    doc = answer(op)
    assert oracles.check(op, doc) is None
    doc["difference_gcd"] = str(int(doc["difference_gcd"]) + 1)
    assert oracles.check(op, doc) is not None


def test_vec_values_with_a_negative_leading_entry_are_rejected_by_persum():
    op = workloads.extrapolate_op(rng(), (2, 3), ("vec", 3))
    assert workloads.hits_vec_defect(op)
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        persum.cli.main(op.argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_depend_on_the_seed_alone(name):
    assert workloads.inputs_sha(workloads.build(name, 3)) == workloads.inputs_sha(workloads.build(name, 3))
    assert workloads.inputs_sha(workloads.build(name, 3)) != workloads.inputs_sha(workloads.build(name, 4))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_named_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, "--workload", "all", "--seed", "0", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    for name in workloads.WORKLOADS:
        for metric in spec[key]:
            entry = result["metrics"][f"{name}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_every_op_starts_from_a_freshly_imported_package():
    import worker

    runner = worker.InProcess(trace=False)
    op = {"argv": ["charpoly", "12", "18"], "stdin": None}
    before = persum.cyclotomic_poly.cache_info()
    first = runner.execute(0, op, 15.0)
    second = runner.execute(0, op, 15.0)
    assert first[1] == second[1] == 0 and first[2] == second[2]
    assert persum.cyclotomic_poly.cache_info() == before  # the children's caches stayed in them


def test_a_span_is_charged_nothing_of_the_wrappers_it_encloses():
    import time

    import tracing

    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: None, "inner", after=lambda args, result: time.sleep(0.05))
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    assert tracer.calls["inner"] == 3
    assert tracer.self_s["outer"] < 0.01


def test_tracing_a_missing_function_fails(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "WRAPS", [("persum.cli", "no_such_function", "cli.none")])
    with pytest.raises(LookupError):
        tracing.Tracer().install()


def test_a_failure_other_than_the_known_defect_makes_the_run_incorrect(monkeypatch, capsys):
    import run

    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.02)  # the largest tables take far longer
    assert run.main(["--workload", "table", "--seed", "1", "--seconds", "0.5", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] > 0
    assert result["correct"] is False
