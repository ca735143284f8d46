"""The benchmark's traced run wraps persum functions by name; every name it
wraps must still resolve, so a refactor cannot silently break it."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import persum

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # compiled from its text, so no bytecode cache is written next to it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_function_resolves():
    tracing = load_tracing()
    assert tracing.WRAPS
    for owner_path, attr, layer in tracing.WRAPS:
        owner = tracing._resolve(owner_path)
        assert owner is not None, f"{owner_path} is gone (layer {layer})"
        assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr} is gone (layer {layer})"


def test_cyclotomic_cache_is_readable():
    assert callable(persum.cyclotomic_poly.cache_info)


# Run in a child process: install() rebinds names inside persum for good.
TRACED_RUN = """
import contextlib, io, json, pathlib, sys, types

path, argvs = sys.argv[1], json.loads(sys.argv[2])
tracing = types.ModuleType("perfbench_tracing")
exec(compile(pathlib.Path(path).read_text(), path, "exec"), tracing.__dict__)
tracer = tracing.Tracer()
tracer.install()
import persum.cli
from persum.spectrum import PeriodSystem

with contextlib.redirect_stdout(io.StringIO()):
    codes = [persum.cli.main(argv) for argv in argvs]
# coeffs streams its rows and builds no table, so the hooked table builder
# is called by name as well
persum.cli.coefficient_table(PeriodSystem((2, 3)))
print(json.dumps({"codes": codes, "counts": dict(tracer.counts)}))
"""

ONE_OF_EACH_SUBCOMMAND = [
    ["spectrum", "2", "3"],
    ["charpoly", "4", "6"],
    ["coeffs", "2", "3"],
    ["extrapolate", "--periods", "2", "3", "--initial", "1", "2", "3", "4", "--at", "-7"],
    ["cover", "--classes", "0 mod 2", "1 mod 2", "--odd"],
    ["finewilf", "--first", "1", "2", "--second", "1", "2", "1"],
]


def test_traced_run_reads_every_result_it_hooks():
    # the tracer's hooks read fields of what persum returns (the spectrum's
    # elements, the table's rows); a result that lost one crashes the
    # benchmark's traced run, which name resolution alone does not show
    env = dict(os.environ, PYTHONPATH=str(Path(persum.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACING), json.dumps(ONE_OF_EACH_SUBCOMMAND)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(ONE_OF_EACH_SUBCOMMAND), proc.stderr
    for name in ("elements_built", "rows_built", "rows_used"):
        assert result["counts"].get(name, 0) > 0, (name, result["counts"])
