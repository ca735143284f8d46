"""The benchmark's traced run wraps persum functions by name; every name it
wraps must still resolve, so a refactor cannot silently break it."""

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
