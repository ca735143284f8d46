"""End-to-end tests for the command line interface."""

import argparse
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import persum
import persum.cli
import persum.covering
import persum.cyclotomic
import persum.reconstruction
import persum.spectrum
from persum.cli import integer, main, positive_int
from persum.covering import ResidueClass, ResidueSystem, multiplicity
from persum.reconstruction import (
    coefficient_table,
    extrapolate,
    table_from_json_dict,
    table_to_json_dict,
)
from persum.spectrum import PeriodSystem, build_spectrum


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def walk_scalars(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from walk_scalars(v)
    elif isinstance(node, list):
        for v in node:
            yield from walk_scalars(v)
    else:
        yield node


def test_spectrum_2_3(capsys):
    doc = run_json(capsys, "spectrum", "2", "3")
    assert doc["periods"] == ["2", "3"]
    assert doc["elements"] == ["0/1", "1/3", "1/2", "2/3"]
    assert doc["modulus"] == "6"
    assert doc["divisor_closure"] == ["1", "2", "3"]
    assert doc["size_enumerated"] == doc["size_phi"] == doc["size_inclusion_exclusion"] == "4"
    assert doc["sizes_agree"] is True


def test_spectrum_1(capsys):
    doc = run_json(capsys, "spectrum", "1")
    assert doc["elements"] == ["0/1"]
    assert doc["size_enumerated"] == "1"


def test_spectrum_4_6(capsys):
    doc = run_json(capsys, "spectrum", "4", "6")
    assert doc["size_enumerated"] == "8"
    assert doc["sizes_agree"] is True


def test_spectrum_rejects_nonpositive_period(capsys):
    code, _, err = run(capsys, "spectrum", "0", "2")
    assert code == 2
    assert "positive" in err


def test_charpoly_2_3(capsys):
    doc = run_json(capsys, "charpoly", "2", "3")
    assert doc["degree"] == "4"
    assert doc["charpoly"] == ["-1", "-1", "0", "1", "1"]
    assert doc["divisor_closure"] == ["1", "2", "3"]


CHARPOLY_4_6 = {
    "periods": ["4", "6"],
    "divisor_closure": ["1", "2", "3", "4", "6"],
    "degree": "8",
    "charpoly": ["-1", "0", "-1", "0", "0", "0", "1", "0", "1"],
}


def test_charpoly_builds_no_fractions(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("built a spectrum for charpoly")

    monkeypatch.setattr(persum.cli, "build_spectrum", refuse)
    monkeypatch.setattr(persum.reconstruction, "build_spectrum", refuse)
    code, out, err = run(capsys, "charpoly", "4", "6")
    assert code == 0, err
    assert out == json.dumps(CHARPOLY_4_6, indent=2) + "\n"


def test_coeffs_2_3_matches_library(capsys):
    doc = run_json(capsys, "coeffs", "2", "3")
    expect = table_to_json_dict(coefficient_table(PeriodSystem((2, 3))))
    assert doc == expect
    assert doc["rows"][4] == ["1", "1", "0", "-1"]
    assert doc["rows"][5] == ["-1", "0", "1", "1"]


def test_coeffs_1(capsys):
    doc = run_json(capsys, "coeffs", "1")
    assert doc["rows"] == [["1"]]


def test_coeffs_out_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, err = run(capsys, "coeffs", "2", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert table_from_json_dict(doc) == coefficient_table(PeriodSystem((2, 3)))


def test_coeffs_out_writes_over_a_longer_file_and_cuts_it(tmp_path, capsys):
    fresh = tmp_path / "fresh.json"
    assert run(capsys, "coeffs", "2", "3", "--out", str(fresh))[0] == 0
    target = tmp_path / "table.json"
    target.write_text("x" * 100_000)
    inode = target.stat().st_ino
    code, out, err = run(capsys, "coeffs", "2", "3", "--out", str(target))
    assert (code, out, err) == (0, "", "")
    assert target.read_bytes() == fresh.read_bytes()
    assert target.stat().st_ino == inode


def test_coeffs_out_to_a_device(capsys):
    code, out, err = run(capsys, "coeffs", "2", "3", "--out", os.devnull)
    assert (code, out, err) == (0, "", "")


class _JsonWithoutDumps:
    """Stands in for the json module inside persum.cli; dumps refuses."""

    def __getattr__(self, name):
        return getattr(json, name)

    @staticmethod
    def dumps(*args, **kwargs):
        raise AssertionError("persum.cli called json.dumps")


def test_every_document_has_the_bytes_of_json_dumps_without_calling_it(tmp_path, capsys, monkeypatch):
    cover_argv = [
        "cover", "--classes", "0 mod 2", "0 mod 3", "1 mod 4", "5 mod 6", "7 mod 12",
        "--odd", "--check", "3", "1", "--gcd-window", "0", "0",
    ]
    vec_argv = ["extrapolate", "--periods", "2", "--initial", "-4,12", "3,-4", "--at", "-5", "--vec", "2"]
    # the oracle bytes, computed before json.dumps is taken away
    table_text = json.dumps(table_to_json_dict(coefficient_table(PeriodSystem((60, 84, 90)))), indent=2) + "\n"
    expect = {}
    for argv in (cover_argv, vec_argv):
        args = persum.cli.build_parser().parse_args(argv)
        expect[argv[0]] = json.dumps(args.func(args), indent=2) + "\n"

    monkeypatch.setattr(persum.cli, "json", _JsonWithoutDumps())

    def refuse(table):
        raise AssertionError("persum.cli called table_to_json_dict")

    monkeypatch.setattr(persum.cli, "table_to_json_dict", refuse)
    target = tmp_path / "table.json"
    code, out, err = run(capsys, "coeffs", "60", "84", "90", "--out", str(target))
    assert (code, out, err) == (0, "", "")
    assert len(table_text) > 2_000_000
    assert target.read_text() == table_text
    for argv in (cover_argv, vec_argv):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out == expect[argv[0]]


def test_coeffs_cell_cap_exit_code(capsys):
    # 7072 rows of 7072 cells: 50,013,184 cells, just over the cap; 7071 is just under
    code, out, err = run(capsys, "coeffs", "7072")
    assert (code, out) == (3, "")
    assert err == "error: table too large: 7072 rows of 7072 cells or more exceed the cap of 50000000\n"


# Linux carries a process's peak RSS across exec, so the peak of one persum
# process is read by a small interpreter that starts it, not by the test
PEAK_OF_ONE_COMMAND = """
import resource, subprocess, sys
code = subprocess.call([sys.executable, "-m", "persum", *sys.argv[1:]])
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_coeffs_out_holds_no_table(tmp_path):
    # (3001,): 3001 rows of 3001 cells, 9,006,001 cells; a table held whole
    # peaked at 84 MB, the rows streamed one at a time take about 17 MB
    target = tmp_path / "table.json"
    env = dict(os.environ, PYTHONPATH=str(Path(persum.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_OF_ONE_COMMAND, "coeffs", "3001", "--out", str(target)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert peak_kb < 50 * 1024
    # row N-1 is x^3000, the last unit vector
    with open(target, "rb") as fh:
        fh.seek(-40, os.SEEK_END)
        assert fh.read().endswith(b'"0",\n      "1"\n    ]\n  ]\n}\n')
    target.unlink()  # 99 MB


def test_extrapolate_int(capsys):
    doc = run_json(
        capsys, "extrapolate", "--periods", "2", "3", "--initial", "1", "0", "2", "0",
        "--at", "4",
    )
    assert doc["group"] == "int"
    assert doc["value"] == "1"
    doc = run_json(
        capsys, "extrapolate", "--periods", "2", "3", "--initial", "1", "0", "2", "0",
        "--at", "-1",
    )
    assert doc["value"] == "1"
    assert doc["x"] == "-1"


def test_extrapolate_mod(capsys):
    doc = run_json(
        capsys, "extrapolate", "--periods", "2", "3", "--initial", "1", "0", "0", "0",
        "--at", "4", "--mod", "2",
    )
    assert doc["group"] == "mod"
    assert doc["modulus"] == "2"
    assert doc["value"] == "1"


def test_extrapolate_vec(capsys):
    doc = run_json(
        capsys, "extrapolate", "--periods", "2", "--initial", "1,2", "3,4",
        "--at", "5", "--vec", "2",
    )
    assert doc["group"] == "vec"
    assert doc["value"] == ["3", "4"]


def test_extrapolate_vec_negative_entries(capsys):
    # a value whose first entry is negative must not be read as an option
    doc = run_json(
        capsys, "extrapolate", "--periods", "2", "--initial", "-4,12,-18", "3,-4,5",
        "--at", "7", "--vec", "3",
    )
    assert doc["initial"] == [["-4", "12", "-18"], ["3", "-4", "5"]]
    assert doc["value"] == ["3", "-4", "5"]
    doc = run_json(
        capsys, "extrapolate", "--periods", "2", "--initial", "1,2", "-3,-4",
        "--at", "-5", "--vec", "2",
    )
    assert doc["x"] == "-5"
    assert doc["value"] == ["-3", "-4"]


def test_extrapolate_negative_int_values(capsys):
    doc = run_json(
        capsys, "extrapolate", "--periods", "2", "3", "--initial", "-1", "0", "-2", "7",
        "--at", "-5", "--int",
    )
    # psi(-5) = psi(1) for N = 6
    assert doc["initial"] == ["-1", "0", "-2", "7"]
    assert doc["value"] == "0"
    doc = run_json(
        capsys, "extrapolate", "--periods", "2", "3", "--initial", "-1", "0", "-2", "7",
        "--at", "4", "--int",
    )
    # row 4 is (1, 1, 0, -1)
    assert doc["value"] == "-8"


def test_closed_stdout_exits_2_without_a_traceback():
    # the (60, 84) table is about 620 KB, far more than a pipe buffers
    env = dict(os.environ, PYTHONPATH=str(Path(persum.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "persum", "coeffs", "60", "84"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_row_cap_exits_3_before_any_work(capsys):
    for argv in (
        ("coeffs", "999983", "1000003"),
        ("extrapolate", "--periods", "999983", "1000003", "--initial", "1", "--at", "5"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "table too large" in err


def test_cell_cap_exits_3_before_any_work(tmp_path, capsys):
    # 999983 rows pass the row cap, but l = 999983 makes 10^12 cells
    target = tmp_path / "table.json"
    start = time.perf_counter()
    code, out, err = run(capsys, "coeffs", "999983", "--out", str(target))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("error: table too large")
    assert "Traceback" not in err
    assert not target.exists()


def test_huge_modulus_refused_on_one_short_line(capsys):
    # N = lcm(1000, ..., 12000) has over 5000 digits, more than int() will write
    periods = [str(n) for n in range(1000, 12001)]
    for argv in (
        ("coeffs", *periods),
        ("extrapolate", "--periods", *periods, "--initial", "1", "--at", "0"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.startswith("error: table too large: at least 2^17278 rows")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < 200


HUGE_PERIOD = str(10**18 + 3)


@pytest.mark.parametrize("argv", [
    ["spectrum", HUGE_PERIOD],
    ["charpoly", HUGE_PERIOD],
    ["cover", "--classes", f"0 mod {HUGE_PERIOD}"],
    ["coeffs", HUGE_PERIOD],
    ["extrapolate", "--periods", HUGE_PERIOD, "--initial", "1", "--at", "0"],
], ids=lambda argv: argv[0])
def test_every_subcommand_refuses_a_huge_period_before_any_work(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("computed past the size check")

    for module, name in (
        (persum.cyclotomic, "divisors"),
        (persum.spectrum, "divisors"),
        (persum.cli, "build_spectrum"),
        (persum.cli, "characteristic_poly"),
        (persum.reconstruction, "build_spectrum"),
        (persum.reconstruction, "characteristic_poly"),
    ):
        monkeypatch.setattr(module, name, refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    noun = "table" if argv[0] in ("coeffs", "extrapolate") else "spectrum"
    assert err.startswith(f"error: {noun} too large: {HUGE_PERIOD} ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_extrapolate_wrong_count(capsys):
    code, _, err = run(
        capsys, "extrapolate", "--periods", "2", "3", "--initial", "1", "0", "--at", "0"
    )
    assert code == 2
    assert "4" in err


def test_extrapolate_bad_value(capsys):
    code, _, err = run(
        capsys, "extrapolate", "--periods", "2", "--initial", "x", "y", "--at", "0"
    )
    assert code == 2
    assert "bad initial value" in err


def test_extrapolate_vec_dimension_mismatch(capsys):
    code, _, err = run(
        capsys, "extrapolate", "--periods", "2", "--initial", "1,2,3", "4,5,6",
        "--at", "0", "--vec", "2",
    )
    assert code == 2


# every place an integer enters from argv; {} stands for the token under test
ARGV_INTEGER_SITES = {
    "spectrum-period": ["spectrum", "{}"],
    "charpoly-period": ["charpoly", "2", "{}"],
    "coeffs-period": ["coeffs", "{}"],
    "extrapolate-periods": ["extrapolate", "--periods", "{}", "--initial", "1", "--at", "0"],
    "extrapolate-at": ["extrapolate", "--periods", "1", "--initial", "1", "--at", "{}"],
    "extrapolate-mod": ["extrapolate", "--periods", "1", "--initial", "1", "--at", "0", "--mod", "{}"],
    "extrapolate-vec": ["extrapolate", "--periods", "1", "--initial", "1", "--at", "0", "--vec", "{}"],
    "initial-int": ["extrapolate", "--periods", "2", "--initial", "1", "{}", "--at", "0"],
    "initial-mod": ["extrapolate", "--periods", "2", "--initial", "{}", "1", "--at", "0", "--mod", "5"],
    "initial-vec": ["extrapolate", "--periods", "2", "--initial", "1,2", "3,{}", "--at", "0", "--vec", "2"],
    "cover-start": ["cover", "--classes", "0 mod 2", "--start", "{}"],
    "cover-check-m": ["cover", "--classes", "0 mod 2", "--check", "{}", "1"],
    "cover-check-a": ["cover", "--classes", "0 mod 2", "--check", "2", "{}"],
    "cover-gcd-a": ["cover", "--classes", "0 mod 2", "--gcd-window", "{}", "0"],
    "cover-gcd-b": ["cover", "--classes", "0 mod 2", "--gcd-window", "0", "{}"],
    "finewilf-first": ["finewilf", "--first", "0", "{}", "--second", "1"],
    "finewilf-second": ["finewilf", "--first", "0", "--second", "{}"],
    "finewilf-first-period": ["finewilf", "--first", "0", "--second", "1", "--first-period", "{}"],
    "finewilf-second-period": ["finewilf", "--first", "0", "--second", "1", "--second-period", "{}"],
}


def test_no_integer_option_bypasses_the_strict_reader():
    subparsers = next(a for a in persum.cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == {argv[0] for argv in ARGV_INTEGER_SITES.values()}
    for name, parser in subparsers.choices.items():
        for action in parser._actions:
            assert action.type is not int, (name, action.dest)
            assert action.type in (None, integer, positive_int), (name, action.dest)


@pytest.mark.parametrize("site", ARGV_INTEGER_SITES)
def test_every_argv_integer_site_takes_a_canonical_token(capsys, site):
    argv = [arg.format("1") for arg in ARGV_INTEGER_SITES[site]]
    run_json(capsys, *argv)


@pytest.mark.parametrize("token", ["\u0663", "-\u0663", " 1", "1 ", "+1", "1_0"])
@pytest.mark.parametrize("site", ARGV_INTEGER_SITES)
def test_every_argv_integer_site_refuses_what_int_would_take(capsys, site, token):
    argv = [arg.format(token) for arg in ARGV_INTEGER_SITES[site]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert repr(token) in err
    # one message per kind of site: argparse's for options, the handler's for --initial
    assert ("bad initial value:" if site.startswith("initial-") else "expected an integer, got") in err
    assert "Traceback" not in err


# argv that argparse itself answers, each with an exit: help, a missing or bad
# command, a missing required argument, an unknown option, a bad type
PARSER_EXITS = [
    [], ["--help"], ["-h", "spectrum"], ["nope"], ["nope", "--help"], ["--bogus", "spectrum", "4"],
    *([command, "--help"] for command in ("spectrum", "charpoly", "coeffs", "extrapolate", "cover", "finewilf")),
    ["spectrum"], ["spectrum", "4", "--bogus"],
    ["charpoly"], ["charpoly", "4", "--bogus"],
    ["coeffs"], ["coeffs", "4", "--bogus"], ["coeffs", "4", "--out"],
    ["extrapolate", "--periods", "2", "--initial", "1", "2"],
    ["extrapolate", "--periods", "2", "--initial", "1", "2", "--at", "3", "--bogus"],
    ["extrapolate", "--periods", "2", "--initial", "1", "2", "--at", "3", "--mod", "2", "--vec", "2"],
    ["extrapolate", "--periods", "0", "--initial", "1", "--at", "3"],
    ["cover", "--check", "2"], ["cover", "--classes", "0 mod 2", "--bogus"],
    ["finewilf", "--first", "1"], ["finewilf", "--first", "1", "--second", "2", "--bogus"],
]


@pytest.mark.parametrize("columns", ["200", "40"])
@pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
def test_main_answers_parser_exits_as_the_full_parser_does(capsys, monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)  # 40 compares the wrapped usage lines too

    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        return (exc.value.code, *capsys.readouterr())

    assert outcome(main) == outcome(persum.cli.build_parser().parse_args)


def test_parser_errors_name_the_command_argument(capsys):
    # the full parser leaves the subcommand metavar unset, so these two
    # messages name the argument, not the list of all six subcommands
    assert run(capsys, "nope")[2].endswith("error: argument command: invalid choice: 'nope' (choose from "
                                           "'spectrum', 'charpoly', 'coeffs', 'extrapolate', 'cover', 'finewilf')\n")
    assert run(capsys)[2].endswith("error: the following arguments are required: command\n")


@pytest.mark.parametrize("site", ARGV_INTEGER_SITES)
def test_one_command_parser_reads_what_the_full_parser_reads(site):
    # the one-command parser is main's grammar reader, which reads argv by
    # the named command's entry of _COMMANDS alone
    argv = [arg.format("1") for arg in ARGV_INTEGER_SITES[site]]
    one = persum.cli._read(argv)
    assert one is not None
    assert vars(one) == vars(persum.cli.build_parser().parse_args(argv))


def test_main_builds_no_subparser_for_a_request_and_all_six_otherwise(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting_add_parser(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    commands = {argv[0]: [arg.format("1") for arg in argv] for argv in ARGV_INTEGER_SITES.values()}
    assert len(commands) == 6
    for command, argv in commands.items():
        assert run(capsys, *argv)[0] == 0
        assert built == [], command
    for argv in (["--help"], ["nope"], ["spectrum", "--help"], ["spectrum", "0"], ["cover", "--check", "2"]):
        built.clear()
        assert run(capsys, *argv)[0] in (0, 2)
        assert sorted(built) == sorted(commands)


def imported_by_python(*args):
    """The modules a fresh `python args` imports, by -X importtime."""
    env = dict(os.environ, PYTHONPATH=str(Path(persum.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env, timeout=60)
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return proc.returncode, proc.stdout, {line.rsplit("|", 1)[1].strip() for line in lines}


def imported_by_python_m_persum(*argv):
    """The modules a fresh `python -m persum argv` imports."""
    return imported_by_python("-m", "persum", *argv)


def test_a_valid_command_imports_neither_argparse_nor_locale():
    code, out, modules = imported_by_python_m_persum("spectrum", "2", "3")
    assert code == 0
    assert json.loads(out)["size_enumerated"] == "4"
    assert "persum.cli" in modules
    assert not modules & {"argparse", "gettext", "locale"}
    # the same process asked for help does import them, so the check can see them
    code, out, modules = imported_by_python_m_persum("spectrum", "--help")
    assert (code, out[:22]) == (0, "usage: persum spectrum")
    assert {"argparse", "locale"} <= modules


def test_writing_a_spectrum_imports_neither_fractions_nor_decimal():
    for argv, field in ((["spectrum", "2", "3"], "elements"), (["coeffs", "2", "3"], "spectrum")):
        code, out, modules = imported_by_python_m_persum(*argv)
        assert code == 0
        assert json.loads(out)[field] == ["0/1", "1/3", "1/2", "2/3"]
        assert "persum.cli" in modules
        assert not modules & {"fractions", "decimal"}, argv
    # a table load parses its spectrum into Fractions, so the check can see them
    code, out, modules = imported_by_python("-c", (
        "from persum import PeriodSystem, coefficient_table, table_from_json_dict, table_to_json_dict\n"
        "table = coefficient_table(PeriodSystem((2, 3)))\n"
        "print(table_from_json_dict(table_to_json_dict(table)) == table)\n"
    ))
    assert (code, out) == (0, "True\n")
    assert {"fractions", "decimal"} <= modules


def test_argv_integers_keep_their_sign_and_size(capsys):
    huge = 10**60 - 1
    doc = run_json(capsys, "extrapolate", "--periods", "2", "3", "--initial", str(huge), "-4", "12", "0",
                   "--at", str(-huge))
    assert doc["x"] == str(-huge)
    assert doc["value"] == str(extrapolate(PeriodSystem((2, 3)), [huge, -4, 12, 0], -huge))
    doc = run_json(capsys, "extrapolate", "--periods", "2", "--initial", f"-4,{huge}", "3,-4",
                   "--at", str(huge), "--vec", "2")
    assert doc["initial"] == [["-4", str(huge)], ["3", "-4"]]
    assert doc["value"] == ["3", "-4"]
    doc = run_json(capsys, "extrapolate", "--periods", "2", "--initial", "-4", str(huge),
                   "--at", "-5", "--mod", str(huge + 2))
    assert doc["modulus"] == str(huge + 2)
    assert doc["initial"] == [str(huge - 2), str(huge)]
    assert doc["value"] == str(huge)
    doc = run_json(capsys, "cover", "--classes", "0 mod 2", "--start", str(-huge),
                   "--check", str(huge), "-1", "--gcd-window", str(huge), str(-huge))
    assert doc["start"] == str(-huge)
    assert doc["window"] == ["0", "1"]  # -huge is odd
    assert doc["class_check"] == {"m": str(huge), "a": str(huge - 1), "ok": False, "window": ["0", "1"]}
    assert doc["gcd_window"]["value"] == str(math.gcd(huge, huge - 1))
    doc = run_json(capsys, "finewilf", "--first", str(-huge), "--second", str(huge), "-1",
                   "--second-period", "2")
    assert doc["first"] == [str(-huge)]
    assert doc["difference_gcd"] == str(math.gcd(2 * huge, huge - 1))


def test_cover_inline(capsys):
    doc = run_json(
        capsys, "cover", "--classes", "0 mod 2", "0 mod 3",
        "--gcd-window", "0", "0", "--odd",
    )
    assert doc["classes"] == [["0", "2"], ["0", "3"]]
    assert doc["window_length"] == "4"
    assert doc["window"] == ["2", "0", "1", "1"]
    assert doc["maximal_moduli_distinct"] is True
    assert doc["odd_cover"] is False
    # the maximal moduli 201..400 are distinct, which forces gcd 1
    assert doc["maximal_moduli_distinct"] is True
    assert doc["gcd_window"]["value"] == "1"
    assert doc["gcd_window"]["all_zero_window"] is False


def test_cover_odd_exact_cover(capsys):
    doc = run_json(capsys, "cover", "--classes", "0 mod 2", "1 mod 2", "--odd")
    assert doc["odd_cover"] is True
    assert doc["maximal_moduli_distinct"] is False


def test_cover_class_check(capsys):
    doc = run_json(
        capsys, "cover", "--classes", "0 mod 2", "1 mod 2", "--check", "2", "1"
    )
    assert doc["class_check"]["ok"] is True
    assert doc["class_check"]["m"] == "2"
    assert doc["class_check"]["a"] == "1"


def test_cover_start_flag(capsys):
    doc = run_json(
        capsys, "cover", "--classes", "0 mod 1", "0 mod 2", "1 mod 2",
        "--start", "3", "--odd",
    )
    assert doc["odd_cover"] is False
    assert doc["start"] == "3"
    assert doc["window"] == ["2", "2"]


def test_cover_from_file(tmp_path, capsys):
    src = tmp_path / "cover.txt"
    src.write_text("# exact cover\n0 mod 2\n1 mod 2\n")
    doc = run_json(capsys, "cover", str(src), "--odd")
    assert doc["odd_cover"] is True


def test_cover_from_json_file(tmp_path, capsys):
    src = tmp_path / "cover.json"
    src.write_text('[[0, 2], [0, 3]]')
    doc = run_json(capsys, "cover", str(src))
    assert doc["window"] == ["2", "0", "1", "1"]


def test_cover_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 mod 2\n1 mod 2\n"))
    doc = run_json(capsys, "cover", "-", "--odd")
    assert doc["odd_cover"] is True


def test_cover_error_paths(tmp_path, capsys):
    code, _, err = run(capsys, "cover")
    assert code == 2
    assert "no residue system" in err

    src = tmp_path / "bad.txt"
    src.write_text("0 mod 2\n0 rem 3\n")
    code, _, err = run(capsys, "cover", str(src))
    assert code == 2
    assert "line 2" in err

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = run(capsys, "cover", str(empty))
    assert code == 2

    code, _, err = run(capsys, "cover", str(src), "--classes", "0 mod 2")
    assert code == 2
    assert "not both" in err

    code, _, err = run(capsys, "cover", str(tmp_path / "missing.txt"))
    assert code == 2

    code, _, err = run(capsys, "cover", "--classes", "0 mod 2", "--check", "0", "1")
    assert code == 2
    assert "positive" in err


def test_cover_check_modulus_refused_before_any_window(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("built a window before checking --check M")

    monkeypatch.setattr(persum.cli, "multiplicity_window", refuse)
    code, out, err = run(capsys, "cover", "--classes", "0 mod 2", "--check", "0", "1")
    assert code == 2
    assert out == ""
    assert err == "error: check modulus must be positive, got 0\n"


COVER_MIXED = {
    "classes": [["0", "2"], ["1", "3"], ["3", "4"]],
    "window_length": "6",
    "start": "-5",
    "window": ["2", "1", "0", "2", "1", "1"],
    "maximal_moduli_distinct": True,
    "odd_cover": False,
    "class_check": {"m": "3", "a": "1", "ok": False, "window": ["2", "1", "0", "2", "1", "1"]},
    "gcd_window": {"a": "10", "b": "2", "value": "1", "all_zero_window": False},
}


def test_cover_tests_no_class_per_position(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("tested every class at a window position")

    monkeypatch.setattr(persum.cli, "multiplicity", refuse)
    monkeypatch.setattr(persum.covering, "multiplicity", refuse)
    code, out, err = run(
        capsys, "cover", "--classes", "0 mod 2", "1 mod 3", "3 mod 4", "--start", "-5",
        "--odd", "--check", "3", "1", "--gcd-window", "10", "2",
    )
    assert code == 0, err
    assert out == json.dumps(COVER_MIXED, indent=2) + "\n"


def maximal_moduli_distinct_by_multiset(moduli):
    # the O(k^2) rule over the multiset, kept as the oracle of the scan over
    # distinct moduli
    maximal = [n for n in moduli if not any(other != n and other % n == 0 for other in moduli)]
    return len(maximal) == len(set(maximal))


def random_cover_classes(rng, case):
    """A residue system as (a, n) pairs, moduli up to 12: one class, or up to
    four, then maybe a repeated class, or two more classes on a maximal
    modulus or on a non-maximal one."""
    if case == "one class":
        return [(rng.randrange(-12, 12), rng.randint(1, 12))]
    pairs = [(rng.randrange(-12, 12), rng.randint(1, 12)) for _ in range(rng.randint(1, 4))]
    top = max(n for _, n in pairs)
    if case == "repeated class":
        pairs.append(rng.choice(pairs))
    elif case == "repeated maximal modulus":
        pairs += [(rng.randrange(top), top), (rng.randrange(top), top)]
    elif case == "repeated non-maximal modulus":
        d = rng.choice([d for d in range(1, top) if top % d == 0] or [top])
        pairs += [(rng.randrange(d), d), (rng.randrange(d), d)]
    rng.shuffle(pairs)
    return pairs


def test_cover_verdicts_match_point_by_point_multiplicities(capsys):
    rng = random.Random(18)
    cases = ("one class", "plain", "repeated class", "repeated maximal modulus", "repeated non-maximal modulus")
    seen = {"odd": set(), "ok": set(), "distinct": set(), "zero": set()}
    for i in range(400):
        pairs = random_cover_classes(rng, cases[i % len(cases)])
        system = ResidueSystem(tuple(ResidueClass(a, n) for a, n in pairs))
        start, m, ca = rng.randrange(-30, 30), rng.randint(1, 4), rng.randrange(-4, 4)
        # b in {0, -1, -2}: a window of constant multiplicity -b gcds to 0
        ga, gb = rng.randrange(-30, 30), -rng.randint(0, 2)
        doc = run_json(capsys, "cover", "--classes", *(f"{a} mod {n}" for a, n in pairs),
                       "--start", str(start), "--odd", "--check", str(m), str(ca),
                       "--gcd-window", str(ga), str(gb))
        length = len(build_spectrum(system.period_system))
        assert doc["window_length"] == str(length), pairs
        counts = [multiplicity(system, x) for x in range(start, start + length)]
        assert doc["window"] == [str(c) for c in counts], pairs
        assert doc["odd_cover"] is all(c % 2 == 1 for c in counts), pairs
        assert doc["class_check"]["ok"] is all((c - ca) % m == 0 for c in counts), pairs
        value = math.gcd(*(multiplicity(system, ga + r) + gb for r in range(length)))
        assert doc["gcd_window"]["value"] == str(value), pairs
        assert doc["gcd_window"]["all_zero_window"] is (value == 0), pairs
        distinct = maximal_moduli_distinct_by_multiset([n for _, n in pairs])
        assert doc["maximal_moduli_distinct"] is distinct, pairs
        for name, verdict in (("odd", doc["odd_cover"]), ("ok", doc["class_check"]["ok"]),
                              ("distinct", distinct), ("zero", value == 0)):
            seen[name].add(verdict)
    # every verdict was drawn both ways
    assert all(verdicts == {True, False} for verdicts in seen.values()), seen


def test_cover_on_four_hundred_classes_is_fast(capsys):
    # classes n//2 mod n for n = 2..400: a window of about 48,700 positions,
    # which per-position counting took seconds to fill
    moduli = range(2, 401)
    classes = [f"{n // 2} mod {n}" for n in moduli]
    start = time.perf_counter()
    doc = run_json(capsys, "cover", "--classes", *classes, "--odd", "--gcd-window", "7", "0")
    assert time.perf_counter() - start < 1.5
    window = doc["window"]
    assert int(doc["window_length"]) == len(window) > 40_000
    for i in [*range(50), *range(0, len(window), 997), len(window) - 1]:
        assert int(window[i]) == sum(1 for n in moduli if i % n == n // 2), i
    assert doc["odd_cover"] is False
    assert doc["gcd_window"]["value"] == "1"


def test_finewilf_identical(capsys):
    doc = run_json(
        capsys, "finewilf", "--first", "0", "1",
        "--second", "0", "1", "0", "1", "0", "1",
    )
    assert doc["difference_gcd"] == "0"
    assert doc["identical"] is True
    assert doc["window_length"] == "6"


def test_finewilf_gcd_two(capsys):
    doc = run_json(
        capsys, "finewilf", "--first", "2", "4", "--second", "0", "0", "0"
    )
    assert doc["difference_gcd"] == "2"
    assert doc["identical"] is False
    assert doc["window_length"] == "4"


def test_finewilf_gcd_one(capsys):
    doc = run_json(
        capsys, "finewilf", "--first", "0", "1", "--second", "0", "1", "0"
    )
    assert doc["difference_gcd"] == "1"
    assert doc["identical"] is False


def test_finewilf_declared_period_must_match(capsys):
    code, _, err = run(
        capsys, "finewilf", "--first", "0", "1", "--second", "0",
        "--first-period", "3",
    )
    assert code == 2
    assert "declares period 3" in err


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "coeffs", "4", "6")
    _, second, _ = run(capsys, "coeffs", "4", "6")
    assert first == second


def test_no_bare_numbers_in_output(capsys):
    # every scalar is either a bool flag or a decimal string
    for argv in (
        ("spectrum", "4", "6"),
        ("charpoly", "4", "6"),
        ("coeffs", "2", "3"),
        ("extrapolate", "--periods", "2", "--initial", "5", "7", "--at", "-3"),
        ("cover", "--classes", "0 mod 2", "0 mod 3", "--odd", "--check", "3", "1",
         "--gcd-window", "0", "0"),
        ("finewilf", "--first", "1", "--second", "2"),
    ):
        doc = run_json(capsys, *argv)
        for scalar in walk_scalars(doc):
            assert isinstance(scalar, (str, bool)), (argv, scalar)


def test_every_handler_returns_one_document(tmp_path):
    # a dict for main to write, or None once coeffs --out has written it
    target = tmp_path / "table.json"
    cases = [
        (["spectrum", "4", "6"], dict),
        (["charpoly", "4", "6"], dict),
        (["coeffs", "2", "3"], dict),
        (["coeffs", "2", "3", "--out", str(target)], type(None)),
        (["extrapolate", "--periods", "2", "--initial", "5", "7", "--at", "-3"], dict),
        (["cover", "--classes", "0 mod 2", "1 mod 2", "--odd"], dict),
        (["finewilf", "--first", "1", "--second", "2"], dict),
    ]
    assert {argv[0] for argv, _ in cases} == set(persum.cli._COMMANDS)
    for argv, shape in cases:
        args = persum.cli.build_parser().parse_args(argv)
        assert type(args.func(args)) is shape, argv
    assert json.loads(target.read_text()) == table_to_json_dict(coefficient_table(PeriodSystem((2, 3))))


def test_missing_subcommand_exits_2(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_round_trip_extrapolation_matches_library(tmp_path, capsys):
    target = tmp_path / "t.json"
    code, _, _ = run(capsys, "coeffs", "4", "6", "--out", str(target))
    assert code == 0
    reloaded = table_from_json_dict(json.loads(target.read_text()))
    table = coefficient_table(PeriodSystem((4, 6)))
    assert reloaded == table
    initial = list(range(table.width))
    for x in (-7, 0, 13, 100):
        assert extrapolate(reloaded, initial, x) == extrapolate(table, initial, x)
