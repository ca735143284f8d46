"""Every request of the benchmark's four workloads, built as the benchmark
builds them at seed 1, stays under persum's default size caps, and the CLI's
grammar reader reads each one exactly as argparse does."""

import sys
import types
from pathlib import Path

import pytest

import persum.cli
from persum.covering import parse_residue_system
from persum.reconstruction import DEFAULT_MAX_ROWS, check_size
from persum.spectrum import PeriodSystem

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    # compiled from its text, so no bytecode cache is written next to it; its
    # dataclass looks its own module up in sys.modules while the class is made
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


workloads = load_workloads()
PARSER = persum.cli.build_parser()


def period_system(op, args):
    """The period system persum sizes for a request; finewilf sizes none,
    and its two periods are held to the same caps here."""
    if args.command == "cover":
        return parse_residue_system("\n".join(args.classes) if args.classes else op.stdin).period_system
    if args.command == "finewilf":
        return PeriodSystem((len(args.first), len(args.second)))
    return PeriodSystem(tuple(args.periods))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_is_under_the_default_caps(workload):
    for op in workloads.build(workload, 1):
        args = PARSER.parse_args(op.argv)
        ps = period_system(op, args)
        check_size(ps, ps.modulus if args.command == "coeffs" else None)
        if args.command == "extrapolate":
            assert ps.modulus <= DEFAULT_MAX_ROWS, op.argv


def test_the_grammar_reader_reads_every_op_as_argparse_does():
    ops = [op for name in workloads.WORKLOADS for op in workloads.build(name, 1)]
    assert len(ops) == 484
    assert {op.argv[0] for op in ops} == set(persum.cli._COMMANDS)
    for op in ops:
        args = persum.cli._read(op.argv)
        assert args is not None, op.argv
        assert vars(args) == vars(PARSER.parse_args(op.argv)), op.argv
