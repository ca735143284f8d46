"""End-to-end tests for the command line interface."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import persum
import persum.cli
import persum.reconstruction
from persum.cli import main
from persum.reconstruction import (
    coefficient_table,
    extrapolate,
    table_from_json_dict,
    table_to_json_dict,
)
from persum.spectrum import PeriodSystem


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


def test_coeffs_row_cap_exit_code(capsys):
    code, _, err = run(capsys, "coeffs", "2", "3", "--max-rows", "5")
    assert code == 3
    assert "table too large" in err


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
