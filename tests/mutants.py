"""Apply each committed mutant of persum to a copy of src/ and require that
its tests catch it.

    python tests/mutants.py

Each entry of MUTANTS names a file under src/, the exact text to replace,
the text that replaces it, and the pytest arguments of the tests that must
fail on it. The old text must occur exactly once in its file, so a change
that moves or rewrites it must update the entry. Each selection is first
run on an unmutated copy, where it must pass, since a selection that fails
anyway would seem to kill every mutant. Then each mutant is applied to its
own temporary copy of src/ and its selection runs with `pytest -x`,
importing persum from that copy. The script prints one line per mutant and
exits 1 if any old text is missing or repeated, any selection fails
unmutated, or any mutant survives; 0 when every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/, old text, new text, pytest arguments)
MUTANTS = [
    # _row's reduction by P's nonzero coefficients, with its sign flipped
    ("persum/reconstruction.py",
     "row[top + j] += c * a",
     "row[top + j] -= c * a",
     ["tests/test_reconstruction.py", "-k", "row or extrapolate"]),
    # _row forgets that row r is row s reversed when s is not r
    ("persum/reconstruction.py",
     "return row if s == r else row[::-1]",
     "return row",
     ["tests/test_reconstruction.py", "-k", "row or extrapolate"]),
    # table_walk encodes a recomputed cell with the wrong sign
    ("persum/reconstruction.py",
     "cells[j] = cell(c)",
     "cells[j] = cell(-c)",
     ["tests/test_cli.py", "-k", "coeffs"]),
    # table_walk leaves the cell at position 0 blank, though P(0) = -1 makes
    # it nonzero wherever a row's top entry is
    ("persum/reconstruction.py",
     "cells[j] = cell(c)",
     "if j: cells[j] = cell(c)",
     ["tests/test_cli.py", "-k", "coeffs"]),
    # _row squares for s >= l, not s >= 2l, so a row below 2l takes a product
    ("persum/reconstruction.py",
     "while s >> bits >= 2 * width:",
     "while s >> bits >= width:",
     ["tests/test_reconstruction.py", "-k", "row_below_2l"]),
    # the value rule takes a bool as an int
    ("persum/reconstruction.py",
     "return isinstance(value, int) and not isinstance(value, bool)",
     "return isinstance(value, int)",
     ["tests/test_reconstruction.py", "-k", "no_one_group"]),
    # a sum of tuple-valued maps concatenates its tuples instead of adding them
    ("persum/reconstruction.py",
     "        if type(acc) is tuple:\n"
     "            return tuple(map(sum, zip(acc, *(comp(x) for comp in self.components[1:]))))\n",
     "",
     ["tests/test_properties.py", "-k", "tuple_valued_maps"]),
    # check_size refuses a table of exactly DEFAULT_MAX_CELLS cells
    ("persum/reconstruction.py",
     "if factor * width > DEFAULT_MAX_CELLS:",
     "if factor * width >= DEFAULT_MAX_CELLS:",
     ["tests/test_reconstruction.py", "-k", "cap"]),
    # a map takes any x that its values' tuple can be indexed by, a bool included
    ("persum/reconstruction.py",
     "        if type(x) is not int:  # one C test for an int; check_int takes a subclass\n"
     "            check_int(x, \"x\")\n",
     "",
     ["tests/test_reconstruction.py", "-k", "x_that"]),
    # the Kronecker digit one byte short, so the bound no longer fits in half a digit
    ("persum/cyclotomic.py",
     "width = bound.bit_length() // 8 + 1",
     "width = bound.bit_length() // 8",
     ["tests/test_cyclotomic.py", "-k", "kronecker"]),
    # each division by x^g - 1 skips its first quotient coefficient past g - 1
    ("persum/cyclotomic.py",
     "for i in range(g, len(p)):",
     "for i in range(g + 1, len(p)):",
     ["tests/test_acceptance.py", "-k", "criterion_02"]),
    # the grammar reader takes '-' then digits alone as a value, as argparse's default does
    ("persum/cli.py",
     'return token[:1] != "-" or token[1:2] in "0123456789"',
     'return token == "-" or token[1:].isdigit() and token[1:].isascii()',
     ["tests/test_cli.py", "-k", "dash"]),
    # argparse keeps its default pattern for a value, which takes plain numbers alone
    ("persum/cli.py",
     '        p._negative_number_matcher = re.compile(r"-\\d")\n',
     "",
     ["tests/test_cli.py", "-k", "dash"]),
    # a stdout that fails to take the document, other than a closed pipe, ends in a traceback
    ("persum/cli.py",
     "    except OSError as exc:\n        # exit 2",
     "    except BrokenPipeError as exc:\n        # exit 2",
     ["tests/test_cli.py", "-k", "full_stdout"]),
    # a walk of no rows is written as its closing bracket alone
    ("persum/cli.py",
     'emit("[]" if sep[0] == "[" else indent + "]")',
     'emit(indent + "]")',
     ["tests/test_properties.py", "-k", "empty_row_generator"]),
    # the package root reads an unknown name as None
    ("persum/__init__.py",
     'raise AttributeError(f"module {__name__!r} has no attribute {name!r}")',
     "return None",
     ["tests/test_package.py", "-k", "no_such_name"]),
]


def copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def run_tests(src: Path, selection: list[str]) -> int:
    """pytest's exit code for the selection, with persum imported from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    return subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failures = []
    for path, old, new, selection in MUTANTS:
        count = (ROOT / "src" / path).read_text().count(old)
        if count != 1:
            failures.append(f"{path}: the old text {old!r} occurs {count} times, not once")
    if failures:
        print("\n".join(failures))
        return 1
    selections = {tuple(selection) for *_, selection in MUTANTS}
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(Path(tmp))
        for selection in sorted(selections):
            code = run_tests(src, list(selection))
            if code != 0:
                failures.append(f"unmutated: {' '.join(selection)} exits {code}, not 0")
    for path, old, new, selection in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(Path(tmp))
            target = src / path
            target.write_text(target.read_text().replace(old, new))
            code = run_tests(src, selection)
        # pytest exits 1 when a test failed; 0 is a survivor, and any other
        # code (a collection error, no test selected) kills nothing
        verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR (exit {code})"
        print(f"{verdict}: {path}: {old.strip()!r} -> {new.strip()!r}")
        if code != 1:
            failures.append(f"{path}: {old.strip()!r} -> {new.strip()!r}: {verdict}")
    if failures:
        print("\n".join(failures))
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
