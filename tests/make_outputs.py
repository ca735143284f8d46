"""Regenerate tests/outputs.json, the digest of every benchmark op's output.

    PYTHONPATH=src python tests/make_outputs.py

Each op of the benchmark's four workloads at seeds 1 and 2 runs through
`persum.cli.main` in this process, its `--out` file moved into a scratch
directory and its stdin supplied; its digest is one sha256 over the exit
code, stdout, stderr and the `--out` bytes. tests/test_outputs.py compares
every op's digest with the manifest, so a change that means to change some
output bytes regenerates the manifest with this script and says which ops
changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import persum.cli
from test_benchmark_ops import workloads

MANIFEST = Path(__file__).resolve().parent / "outputs.json"
SEEDS = (1, 2)


def run_op(op, scratch: Path) -> tuple[int, str, str, bytes]:
    """Exit code, stdout, stderr and `--out` bytes (b"" without --out) of
    one op, run in process with its `--out` path moved into scratch."""
    argv = list(op.argv)
    out = None
    if "--out" in argv:
        at = argv.index("--out") + 1
        out = scratch / Path(argv[at]).name
        argv[at] = str(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(op.stdin or "")
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = persum.cli.main(argv)
            except SystemExit as exc:  # argparse exits on help and errors
                code = exc.code
    finally:
        sys.stdin = stdin
    out_bytes = out.read_bytes() if out is not None and out.exists() else b""
    return code, stdout.getvalue(), stderr.getvalue(), out_bytes


def digest(code: int, stdout: str, stderr: str, out_bytes: bytes) -> str:
    h = hashlib.sha256()
    for part in (str(code).encode(), stdout.encode(), stderr.encode(), out_bytes):
        # each part's length first, so no two splits of the bytes hash alike
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def ops():
    """(workload, seed, index, op) for every op, in manifest order."""
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for index, op in enumerate(workloads.build(name, seed)):
                yield name, seed, index, op


def main() -> None:
    manifest: dict[str, dict[str, list[str]]] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, seed, _, op in ops():
            manifest.setdefault(name, {}).setdefault(str(seed), []).append(
                digest(*run_op(op, Path(scratch))))
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {sum(len(d) for w in manifest.values() for d in w.values())} digests to {MANIFEST}")


if __name__ == "__main__":
    main()
