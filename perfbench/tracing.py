"""Spans around persum's public functions, for the benchmark's traced run.

install() replaces each function listed in WRAPS in the module that calls
it with a timing wrapper, and fails if one is missing; nothing inside
persum changes. Each call in the first pass over the ops becomes a span
(layer, start, end, parent span, op id) kept in memory and written out at
exit; later passes only add to the per-layer sums. A layer's self time is
its span time minus everything its enclosed wrappers spent, their own
bookkeeping and hooks included, so the tracer's cost is charged to no layer.
The worker runs each op in a forked child, which sends its snapshot() back
to be merge()d; the child reset()s first, so it sends only its own op. Layers in HOT run thousands of times per request, so their
calls are summed per layer instead of stored one by one.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module that calls the function, attribute, layer). A module that binds
# a name by `from .x import f` calls it through its own global, so each
# binding is wrapped where it is called.
WRAPS = [
    ("persum.cli", "main", "cli.main"),
    ("persum.cli", "coefficient_table", "reconstruction.coefficient_table"),
    ("persum.cli", "extrapolate", "reconstruction.extrapolate"),
    ("persum.cli", "table_to_json_dict", "reconstruction.table_to_json_dict"),
    ("persum.cli", "build_spectrum", "spectrum.build_spectrum"),
    ("persum.cli", "characteristic_poly", "cyclotomic.characteristic_poly"),
    ("persum.cli", "size_by_phi", "spectrum.size_routes"),
    ("persum.cli", "size_by_inclusion_exclusion", "spectrum.size_routes"),
    ("persum.cli", "multiplicity", "covering.multiplicity"),
    ("persum.reconstruction", "build_spectrum", "spectrum.build_spectrum"),
    ("persum.reconstruction", "characteristic_poly", "cyclotomic.characteristic_poly"),
    ("persum.reconstruction", "scale", "groups.scale"),
    ("persum.cyclotomic", "cyclotomic_poly", "cyclotomic.cyclotomic_poly"),
    ("persum.cyclotomic", "divisors", "numth"),
    ("persum.spectrum", "divisors", "numth"),
    ("persum.spectrum", "euler_phi", "numth"),
    ("persum.spectrum", "lcm_all", "numth"),
    ("persum.covering", "multiplicity", "covering.multiplicity"),
    ("persum.covering", "size_by_phi", "spectrum.size_routes"),
    ("persum.covering.ResidueSystem", "window_length", "covering.window_length"),
]
HOT = {"covering.multiplicity", "groups.scale", "numth"}

SELF_TIMED = [
    "reconstruction.coefficient_table",
    "reconstruction.extrapolate",
    "groups.scale",
    "reconstruction.table_to_json_dict",
    "cli.json_dumps",
    "cyclotomic.characteristic_poly",
    "cyclotomic.cyclotomic_poly",
    "spectrum.build_spectrum",
    "spectrum.size_routes",
    "numth",
    "covering.multiplicity",
    "cli.main",
]
CALL_COUNTED = ["groups.scale", "numth", "covering.multiplicity"]


def _resolve(path: str):
    """A module, or a class inside one, by dotted path."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr, None)


class _JsonProxy:
    """Stands in for the json module inside persum.cli, with dumps traced."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op = None
        self.keep_spans = True  # the worker stops keeping spans after the first pass
        self._stack: list[list] = []  # per open span: [time of enclosed spans, span id]
        self._next_id = 0

    def wrap(self, fn, layer: str, after=None):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        hot = layer in HOT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            entry = clock()
            parent = stack[-1][1] if stack else None
            self._next_id += 1
            frame = [0.0, self._next_id]
            stack.append(frame)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                stack.pop()
                calls[layer] += 1
                self_s[layer] += end - start - frame[0]
                if not hot and self.keep_spans:
                    spans.append((layer, start, end, frame[1], parent, self.op))
                if returned and after is not None:
                    after(args, result)
                if stack:  # the enclosing span is charged nothing of this wrapper, hook included
                    stack[-1][0] += clock() - entry
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "reconstruction.coefficient_table": self._table_built,
            "reconstruction.extrapolate": lambda args, result: self._count("rows_used", 1),
            "reconstruction.table_to_json_dict": lambda args, result: self._count("rows_used", len(args[0].rows)),
            "spectrum.build_spectrum": lambda args, result: self._count("elements_built", len(result.elements)),
        }
        for path, attr, layer in WRAPS:
            owner = _resolve(path)
            fn = getattr(owner, attr, None)
            if fn is None:
                raise LookupError(f"{path}.{attr} is not there to trace as {layer}")
            setattr(owner, attr, self.wrap(fn, layer, hooks.get(layer)))
        cli = importlib.import_module("persum.cli")
        cli.json = _JsonProxy(cli.json, self.wrap(cli.json.dumps, "cli.json_dumps"))

    def _count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def _table_built(self, args, table) -> None:
        self.counts["rows_built"] += len(table.rows)
        self.counts["cells_built"] += len(table.rows) * table.width
        bits = max((abs(c).bit_length() for row in table.rows for c in row), default=0)
        self.counts["max_coeff_bits"] = max(self.counts["max_coeff_bits"], bits)

    def reset(self) -> None:
        """Forgets what was recorded, in place, since the wrappers hold these containers."""
        for recorded in (self.spans, self.calls, self.self_s, self.counts):
            recorded.clear()

    def snapshot(self) -> dict:
        """Everything recorded so far; a forked child sends it to its parent."""
        return {"spans": self.spans, "calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "next_id": self._next_id}

    def merge(self, snap: dict) -> None:
        """Adds a child's snapshot; span ids continue from the child's last."""
        self.spans.extend(snap["spans"])
        for totals, name in ((self.calls, "calls"), (self.self_s, "self_s")):
            for layer, value in snap[name].items():
                totals[layer] += value
        for name, value in snap["counts"].items():
            if name == "max_coeff_bits":
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value
        self._next_id = snap["next_id"]

    def metrics(self, executions: int, cover_ops: int) -> dict[str, float]:
        """Per-layer figures, each per op executed unless its name says otherwise."""
        per_op = max(executions, 1)
        out = {f"{layer}.self_s": self.self_s[layer] / per_op for layer in SELF_TIMED}
        out.update({f"{layer}.calls": self.calls[layer] / per_op for layer in CALL_COUNTED})
        built, used = self.counts["rows_built"], self.counts["rows_used"]
        out["reconstruction.rows_built"] = built / per_op
        out["reconstruction.cells_built"] = self.counts["cells_built"] / per_op
        out["reconstruction.rows_used_ratio"] = used / built if built else 1.0
        out["reconstruction.max_coeff_bits"] = self.counts["max_coeff_bits"]
        out["spectrum.elements_built"] = self.counts["elements_built"] / per_op
        out["covering.windows_per_request"] = self.calls["covering.window_length"] / cover_ops if cover_ops else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for layer, start, end, span_id, parent, op in self.spans:
                fh.write(json.dumps({"name": layer, "start": start, "end": end, "id": span_id,
                                     "parent": parent, "op": op}) + "\n")
