"""The workload process: runs one op list against persum in a closed loop.

    python perfbench/worker.py SPEC.json RESULT.json

run.py starts one worker at a time, with src/ on PYTHONPATH. One client
sends each request only after the previous one completed, with no threads.
The loop runs passes over the op list until the time budget is spent, but
always finishes the first pass unless the hard cap is reached, so every op
has at least one timed execution. Per execution it records wall time, exit
status, a hash and the size of everything written; the first execution's
output is saved for the oracles, which run later in run.py.

Modes:
- inprocess: `import persum` once, then fork one child per op. The child
  calls persum.cli.main(argv) with stdout and stderr captured and times
  that call itself, so each execution starts from the state of a freshly
  imported package, as a `persum` command does: nothing one op leaves in
  memory (a cache, a memo) reaches the next op or the next pass. A SIGALRM
  timer in the child bounds the op, and the parent kills a child that
  outlives it. Peak RSS is the largest child's.
- subprocess: run `python -m persum ...` per op, writing to a real pipe,
  with a subprocess timeout. Peak RSS is then that of the children.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import resource
import select
import signal
import subprocess
import sys
import time

KILL_GRACE_S = 5.0  # how long the parent waits past the child's own alarm


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so persum's handlers let it through."""


def _alarm(signum, frame):
    raise OpTimeout()


class InProcess:
    def __init__(self, trace: bool):
        import persum
        import persum.cli

        self.persum = persum
        self.tracer = None
        self.cache_hits = self.cache_misses = 0
        if trace:
            from tracing import Tracer

            if not hasattr(persum.cyclotomic_poly, "cache_info"):
                raise LookupError("persum.cyclotomic_poly has no cache_info() to read the cache hit ratio from")
            self.tracer = Tracer()
            self.tracer.install()

    def _child(self, op: dict, timeout: float) -> dict:
        """Runs in the forked child: one timed call of persum.cli.main."""
        if self.tracer is not None:
            self.tracer.reset()
        signal.signal(signal.SIGALRM, _alarm)
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(op["stdin"] or "")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, timeout)
            start = time.perf_counter()
            try:
                status = self.persum.cli.main(op["argv"])
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 2
            except OpTimeout:
                status = "timeout"
            except Exception as exc:  # a crash is a failed op, not a dead run
                status = f"exception {type(exc).__name__}: {exc}"
            finally:
                elapsed = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
        report = {"elapsed": elapsed, "status": status, "out": out.getvalue().encode(), "err": err.getvalue()}
        if self.tracer is not None:
            report["trace"] = self.tracer.snapshot()
            report["cache"] = self.persum.cyclotomic_poly.cache_info()[:2]
        return report

    def _collect(self, pid: int, fd: int, timeout: float) -> bytes | None:
        """The child's report, or None when it had to be killed."""
        chunks, deadline = [], time.monotonic() + timeout + KILL_GRACE_S
        while True:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                os.waitpid(pid, 0)
                return b"".join(chunks)
            chunks.append(chunk)

    def execute(self, i: int, op: dict, timeout: float):
        if self.tracer is not None:
            self.tracer.op = i
        read_fd, write_fd = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            try:
                with os.fdopen(write_fd, "wb") as fh:
                    pickle.dump(self._child(op, timeout), fh)
            finally:
                os._exit(0)
        os.close(write_fd)
        try:
            data = self._collect(pid, read_fd, timeout)
        finally:
            os.close(read_fd)
        if data is None:
            return timeout, "timeout", b"", "killed after the alarm failed to stop it"
        if not data:
            return 0.0, "exception: the child died without a report", b"", ""
        report = pickle.loads(data)
        if self.tracer is not None:
            self.tracer.merge(report["trace"])
            self.cache_hits += report["cache"][0]
            self.cache_misses += report["cache"][1]
        return report["elapsed"], report["status"], report["out"], report["err"]

    def end_pass(self) -> None:
        if self.tracer is not None:
            self.tracer.keep_spans = False

    def layer_metrics(self, records: list[list], ops: list[dict]) -> dict:
        """The tracer's per-layer figures plus the cache and output counts."""
        executions = sum(len(r) for r in records)
        cover_ops = sum(len(r) for r, op in zip(records, ops) if op["argv"][0] == "cover")
        layers = self.tracer.metrics(executions, cover_ops)
        lookups = self.cache_hits + self.cache_misses
        layers["cyclotomic.cyclotomic_poly.cache_hit_ratio"] = self.cache_hits / lookups if lookups else 0.0
        layers["cli.bytes_out"] = sum(rec[3] for r in records for rec in r) / max(executions, 1)
        return layers


class Subprocess:
    def __init__(self, root: str):
        self.cmd = [sys.executable, "-m", "persum"]
        self.root = root

    def execute(self, i: int, op: dict, timeout: float):
        stdin = (op["stdin"] or "").encode()
        start = time.perf_counter()
        try:
            proc = subprocess.run(self.cmd + op["argv"], input=stdin, capture_output=True,
                                  timeout=timeout, cwd=self.root)
            status, out, err = proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")
        except subprocess.TimeoutExpired as exc:
            status, out, err = "timeout", exc.stdout or b"", ""
        return time.perf_counter() - start, status, out, err

    def end_pass(self) -> None:
        pass


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    ops = spec["ops"]
    runner = InProcess(spec["trace"]) if spec["mode"] == "inprocess" else Subprocess(spec["root"])
    records: list[list] = [[] for _ in ops]
    errors: dict[int, str] = {}
    passes = 0
    start = time.perf_counter()
    deadline, hard_stop = start + spec["seconds"], start + spec["hard_cap"]
    stopped = False
    while not stopped:
        for i, op in enumerate(ops):
            now = time.perf_counter()
            if (passes and now >= deadline) or now >= hard_stop:
                stopped = True
                break
            elapsed, status, out, err = runner.execute(i, op, spec["timeout"])
            if op["out_path"] and os.path.exists(op["out_path"]):
                with open(op["out_path"], "rb") as fh:
                    out += fh.read()
            records[i].append([elapsed, status, hashlib.sha256(out).hexdigest(), len(out)])
            if len(records[i]) == 1:
                with open(os.path.join(spec["work_dir"], f"stdout-{i}.json"), "wb") as fh:
                    fh.write(out if not op["out_path"] else b"")
                if status != 0:
                    errors[i] = f"{status}: {err.strip().splitlines()[-1] if err.strip() else ''}"
        else:
            passes += 1
            runner.end_pass()
            if not spec["repeat"]:
                break
    result = {
        "passes": passes,
        "elapsed_s": time.perf_counter() - start,
        "records": records,
        "errors": errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if spec["trace"]:
        result["layers"] = runner.layer_metrics(records, ops)
        runner.tracer.write_spans(spec["spans_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
