"""Command line front end; every subcommand prints one JSON document.

All numbers inside the JSON are decimal strings, never JSON numbers, so
arbitrary-precision values survive any consumer's parser unchanged. Every
document, on stdout or in a `coeffs --out` file, is the bytes of
`json.dumps(doc, indent=2)` plus a newline. A `coeffs` table is written row
by row, straight from its integer rows, by `_table_pieces`; every other
document, and the fields of a table before its rows, by `_dumps`.
Every integer on the command line is read by `numth.strict_int`, the rule
for documents too: ASCII digits after an optional '-', so a space, '+', '_'
or another script's digit exits 2. A --vec value joins its entries with
commas alone, as in 1,-2.
`main` builds only the parser of the subcommand its argv names, and
`--help` and every message are the same as the full parser's.
Exit codes: 0 success, 2 usage or parse error, 3 a table, spectrum or single
row over its cap (`reconstruction`), refused before any other work.
"""

from __future__ import annotations

import argparse
import json  # noqa: F401  perfbench/tracing.py traces persum.cli.json.dumps by name
import math
import os
import stat
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .covering import (
    maximal_moduli_distinct,
    # not called here; perfbench/tracing.py wraps persum.cli.multiplicity by name
    multiplicity,  # noqa: F401
    multiplicity_window,
    parse_residue_system,
)
from .cyclotomic import characteristic_poly
from .groups import IntVector, ModInt
from .numth import strict_int
from .reconstruction import (
    PeriodicMap,
    TableSizeError,
    check_size,
    coefficient_table,
    extrapolate,
    finewilf_difference_gcd,
    finewilf_window,
    table_json_fields,
    # not called here; perfbench/tracing.py wraps persum.cli.table_to_json_dict by name
    table_to_json_dict,  # noqa: F401
)
from .spectrum import (
    PeriodSystem,
    build_spectrum,
    fraction_str,
    size_by_inclusion_exclusion,
    size_by_phi,
)


def integer(text: str) -> int:
    """argparse type for an integer option: `strict_int`, with the one message
    argparse prints for every malformed argv integer."""
    try:
        return strict_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def positive_int(text: str) -> int:
    value = integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


class _SignedValueMatcher:
    """Stands in for argparse's negative-number pattern on `extrapolate`.

    argparse reads a token that starts with '-' as a value only when the
    pattern matches it, and its own pattern takes plain numbers alone, so
    a --vec value such as -4,12,-18 would read as an unknown option. This
    takes every token with a digit after the '-'; a malformed one is then
    refused by the value parser, still with exit 2. Not a compiled regex,
    which would cost a fresh process about 0.5 ms on every command.
    """

    @staticmethod
    def match(token: str) -> bool:
        return token[1:2].isdecimal()


def _periods_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("periods", nargs="+", type=positive_int, metavar="PERIOD")


def _coeffs_arguments(p: argparse.ArgumentParser) -> None:
    _periods_arguments(p)
    p.add_argument("--out", metavar="PATH", help="write the JSON document here instead of stdout")


def _extrapolate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--periods", nargs="+", type=positive_int, required=True, metavar="PERIOD")
    p.add_argument(
        "--initial",
        nargs="+",
        required=True,
        metavar="VALUE",
        help="the map's values at 0..l-1; with --vec each value is d comma-separated ints",
    )
    p.add_argument("--at", type=integer, required=True, metavar="X", help="argument to reconstruct at")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--int", dest="group_int", action="store_true", help="plain integers (default)")
    group.add_argument("--mod", type=positive_int, metavar="M", help="integers mod M")
    group.add_argument("--vec", type=positive_int, metavar="D", help="integer vectors of dimension D")
    p._negative_number_matcher = _SignedValueMatcher


def _cover_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("source", nargs="?", help="residue system file, or - for stdin")
    p.add_argument(
        "--classes",
        nargs="+",
        metavar="'A mod N'",
        help="inline residue classes instead of a file",
    )
    p.add_argument("--start", type=integer, default=0, help="first x of the inspected window")
    p.add_argument("--odd", action="store_true", help="test for an odd cover")
    p.add_argument(
        "--check",
        nargs=2,
        type=integer,
        metavar=("M", "A"),
        help="test whether every multiplicity lies in A (mod M)",
    )
    p.add_argument(
        "--gcd-window",
        nargs=2,
        type=integer,
        metavar=("A", "B"),
        help="gcd of multiplicity(A+r)+B over the window",
    )


def _finewilf_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--first", nargs="+", type=integer, required=True, metavar="V")
    p.add_argument("--second", nargs="+", type=integer, required=True, metavar="V")
    p.add_argument("--first-period", type=positive_int, help="declared period (default: count)")
    p.add_argument("--second-period", type=positive_int, help="declared period (default: count)")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with all six subcommands, or with `command`'s alone, both
    built from `_COMMANDS`. A one-command parser's subcommand metavar lists
    every name, so its usage line is the full parser's. The full parser
    leaves it unset: argparse names the action by it in the "invalid choice"
    and "required" errors, which only the full parser can raise."""
    parser = argparse.ArgumentParser(
        prog="persum",
        description="Exact spectra, reconstruction tables, and covering-system checks "
        "for sums of periodic maps.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        if command is None or command == name:
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def cmd_spectrum(args) -> dict:
    ps = PeriodSystem(tuple(args.periods))
    check_size(ps)
    sp = build_spectrum(ps)
    sizes = (len(sp.elements), size_by_phi(ps), size_by_inclusion_exclusion(ps))
    return {
        "periods": [str(n) for n in ps.periods],
        "elements": [fraction_str(q) for q in sp.elements],
        "modulus": str(ps.modulus),
        "divisor_closure": [str(d) for d in ps.divisor_closure],
        "size_enumerated": str(sizes[0]),
        "size_phi": str(sizes[1]),
        "size_inclusion_exclusion": str(sizes[2]),
        "sizes_agree": len(set(sizes)) == 1,
    }


def cmd_charpoly(args) -> dict:
    ps = PeriodSystem(tuple(args.periods))
    check_size(ps)
    poly = characteristic_poly(ps)
    return {
        "periods": [str(n) for n in ps.periods],
        "divisor_closure": [str(d) for d in ps.divisor_closure],
        "degree": str(poly.degree),
        "charpoly": [str(c) for c in poly.coeffs],
    }


def cmd_coeffs(args) -> Iterator[str] | None:
    ps = PeriodSystem(tuple(args.periods))
    pieces = _table_pieces(coefficient_table(ps))
    if args.out:
        # Write over the old bytes, then cut the file to length. Opening with
        # "w" would truncate to zero first, and ext4 sends a file truncated to
        # zero and rewritten to disk when it is closed, so the next overwrite
        # of it waits for that write: 50-100 ms per table instead of 0.01 ms.
        fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w") as fh:
            fh.writelines(pieces)
            fh.write("\n")
            if stat.S_ISREG(os.fstat(fd).st_mode):  # /dev/null cannot be cut
                fh.truncate()
        return None
    return pieces


def cmd_extrapolate(args) -> dict:
    ps = PeriodSystem(tuple(args.periods))
    if args.mod is not None:
        group = {"group": "mod", "modulus": str(args.mod)}
        parse = lambda tok: ModInt(strict_int(tok), args.mod)  # noqa: E731
        to_json = lambda value: str(value.value)  # noqa: E731
    elif args.vec is not None:
        group = {"group": "vec", "dimension": str(args.vec)}

        def parse(tok: str) -> IntVector:
            entries = tuple(strict_int(part) for part in tok.split(","))
            if len(entries) != args.vec:
                raise ValueError(
                    f"expected {args.vec} comma-separated entries, got {tok!r}"
                )
            return IntVector(entries)

        to_json = lambda value: [str(a) for a in value.entries]  # noqa: E731
    else:
        group = {"group": "int"}
        parse, to_json = strict_int, str
    try:
        initial = [parse(tok) for tok in args.initial]
    except ValueError as exc:
        raise ValueError(f"bad initial value: {exc}") from None
    value = extrapolate(ps, initial, args.at)
    return {
        "periods": [str(n) for n in ps.periods],
        **group,
        "x": str(args.at),
        "initial": [to_json(v) for v in initial],
        "value": to_json(value),
    }


def _load_system(args):
    if args.classes and args.source:
        raise ValueError("give either a source file or --classes, not both")
    if args.classes:
        text = "\n".join(args.classes)
    elif args.source == "-":
        text = sys.stdin.read()
    elif args.source:
        text = Path(args.source).read_text()
    else:
        raise ValueError("no residue system given (file path, -, or --classes)")
    return parse_residue_system(text)


def cmd_cover(args) -> dict:
    system = _load_system(args)
    if args.check is not None and args.check[0] < 1:
        raise ValueError(f"check modulus must be positive, got {args.check[0]}")
    check_size(system.period_system)
    length = system.window_length()
    window = multiplicity_window(system, args.start, length)
    doc = {
        "classes": [[str(c.residue), str(c.modulus)] for c in system.classes],
        "window_length": str(length),
        "start": str(args.start),
        "window": [str(w) for w in window],
        "maximal_moduli_distinct": maximal_moduli_distinct(system),
    }
    if args.odd:
        doc["odd_cover"] = all(w % 2 == 1 for w in window)
    if args.check is not None:
        m, a = args.check
        doc["class_check"] = {
            "m": str(m),
            "a": str(a % m),
            "ok": all(w % m == a % m for w in window),
            "window": doc["window"],
        }
    if args.gcd_window is not None:
        a, b = args.gcd_window
        value = math.gcd(*(w + b for w in multiplicity_window(system, a, length)))
        doc["gcd_window"] = {
            "a": str(a),
            "b": str(b),
            "value": str(value),
            "all_zero_window": value == 0,
        }
    return doc


def cmd_finewilf(args) -> dict:
    for values, declared, name in (
        (args.first, args.first_period, "first"),
        (args.second, args.second_period, "second"),
    ):
        if declared is not None and declared != len(values):
            raise ValueError(
                f"{name} sequence has {len(values)} values but declares period {declared}"
            )
    g = PeriodicMap(tuple(args.first))
    h = PeriodicMap(tuple(args.second))
    diff_gcd = finewilf_difference_gcd(g, h)
    return {
        "first": [str(v) for v in g.values],
        "second": [str(v) for v in h.values],
        "first_period": str(g.period),
        "second_period": str(h.period),
        "window_length": str(finewilf_window(g.period, h.period)),
        "difference_gcd": str(diff_gcd),
        "identical": diff_gcd == 0,
    }


# name -> (help, the function that adds its arguments, its handler), in the
# order `persum --help` lists them
_COMMANDS = {
    "spectrum": ("enumerate a period list's spectrum and its size", _periods_arguments, cmd_spectrum),
    "charpoly": ("characteristic polynomial of the spectrum", _periods_arguments, cmd_charpoly),
    "coeffs": ("emit the full reconstruction coefficient table", _coeffs_arguments, cmd_coeffs),
    "extrapolate": ("reconstruct a value from initial values", _extrapolate_arguments, cmd_extrapolate),
    "cover": ("covering-multiplicity window checks", _cover_arguments, cmd_cover),
    "finewilf": ("difference gcd of two integer periodic maps", _finewilf_arguments, cmd_finewilf),
}


def _dumps(doc) -> str:
    """The text of `json.dumps(doc, indent=2)` for a tree of str-keyed dicts,
    lists, strings and booleans; any other value raises TypeError.

    `json.dumps` runs its pure-Python encoder whenever `indent` is set. Here
    a list of strings that need no escape (printable ASCII without `"` or
    `\\`, one test over their join) is written by a single join; any other
    string is quoted by `json`'s own escaper, so the text stays exact.
    """
    parts: list[str] = []
    _write(doc, "\n", parts)
    return "".join(parts)


class _QuotedCell(dict):
    """The JSON token of a table cell, its quoted decimal string, made once
    per distinct value: a table holds few."""

    def __missing__(self, cell: int) -> str:
        token = self[cell] = f'"{cell}"'
        return token


def _table_pieces(table) -> Iterator[str]:
    """The text of `_dumps(table_to_json_dict(table))`, in pieces: the
    fields before the rows by `_dumps`, then one piece per row, joined
    straight from its integers. No list of cell strings and no whole text
    is built: writing holds one row's text beside the table."""
    head = _dumps(table_json_fields(table))
    yield head[: -len("\n}")] + ',\n  "rows": ['
    token = _QuotedCell().__getitem__
    sep = "\n    [\n      "
    for row in table.rows:
        yield sep + ",\n      ".join(map(token, row))
        sep = "\n    ],\n    [\n      "
    yield "\n    ]\n  ]\n}"


def _write(value, indent: str, parts: list[str]) -> None:
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, list):
        if not value:
            parts.append("[]")
            return
        inner = indent + "  "
        try:
            joined = "".join(value)
        except TypeError:  # not all strings
            sep = "[" + inner
            for item in value:
                parts.append(sep)
                _write(item, inner, parts)
                sep = "," + inner
        else:
            if joined.isascii() and joined.isprintable() and '"' not in joined and "\\" not in joined:
                parts.append("[" + inner + '"' + ('",' + inner + '"').join(value) + '"')
            else:
                parts.append("[" + inner + ("," + inner).join(map(encode_basestring_ascii, value)))
        parts.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in value.items():
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _write(item, inner, parts)
            sep = "," + inner
        parts.append(indent + "}")
    else:
        raise TypeError(f"{type(value).__name__} is not a persum JSON value")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the named subcommand's parser alone: the other five cost a fresh process about 2 ms
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        doc = args.func(args)  # a document, or the pieces of one, or None once written
    except TableSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if doc is not None:
            out = sys.stdout
            out.writelines([_dumps(doc)] if isinstance(doc, dict) else doc)
            out.write("\n")
            out.flush()
    except BrokenPipeError:
        # reader gone: exit 2 as for an unwritable --out; devnull quiets the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 0


def run() -> None:
    raise SystemExit(main())
