"""Every benchmark op at seeds 1 and 2 gives the exit code, stdout, stderr and
`--out` bytes recorded in tests/outputs.json. The manifest detects change,
not correctness: the benchmark's oracles and the other tests' independent
oracles judge that. A change that means to change output bytes regenerates
the manifest with tests/make_outputs.py."""

import json

from make_outputs import MANIFEST, digest, ops, run_op


def test_every_benchmark_op_gives_the_recorded_output_bytes(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    count = 0
    for name, seed, index, op in ops():
        expect = manifest[name][str(seed)][index]
        got = digest(*run_op(op, tmp_path))
        assert got == expect, f"{name} seed {seed} op {index} changed its output: {op.argv}"
        count += 1
    assert count == sum(len(d) for w in manifest.values() for d in w.values()) == 968
