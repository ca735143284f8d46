"""Command line front end; every subcommand prints one JSON document.

All numbers inside the JSON are decimal strings, never JSON numbers, so
arbitrary-precision values survive any consumer's parser unchanged. Every
document, on stdout or in a `coeffs --out` file, is the bytes of
`json.dumps(doc, indent=2)` plus a newline, written by one writer, `_dumps`.
Exit codes: 0 success, 2 usage or parse error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json  # noqa: F401  perfbench/tracing.py traces persum.cli.json.dumps by name
import math
import os
import sys
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
from .reconstruction import (
    DEFAULT_MAX_ROWS,
    PeriodicMap,
    TableSizeError,
    coefficient_table,
    extrapolate,
    finewilf_difference_gcd,
    finewilf_window,
    table_to_json_dict,
)
from .spectrum import (
    PeriodSystem,
    build_spectrum,
    fraction_str,
    size_by_inclusion_exclusion,
    size_by_phi,
)


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persum",
        description="Exact spectra, reconstruction tables, and covering-system checks "
        "for sums of periodic maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="enumerate a period list's spectrum and its size")
    p.add_argument("periods", nargs="+", type=positive_int, metavar="PERIOD")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("charpoly", help="characteristic polynomial of the spectrum")
    p.add_argument("periods", nargs="+", type=positive_int, metavar="PERIOD")
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("coeffs", help="emit the full reconstruction coefficient table")
    p.add_argument("periods", nargs="+", type=positive_int, metavar="PERIOD")
    p.add_argument("--out", metavar="PATH", help="write the JSON document here instead of stdout")
    p.add_argument(
        "--max-rows",
        type=positive_int,
        default=DEFAULT_MAX_ROWS,
        help=f"row cap before giving up (default {DEFAULT_MAX_ROWS})",
    )
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("extrapolate", help="reconstruct a value from initial values")
    p.add_argument("--periods", nargs="+", type=positive_int, required=True, metavar="PERIOD")
    p.add_argument(
        "--initial",
        nargs="+",
        required=True,
        metavar="VALUE",
        help="the map's values at 0..l-1; with --vec each value is d comma-separated ints",
    )
    p.add_argument("--at", type=int, required=True, metavar="X", help="argument to reconstruct at")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--int", dest="group_int", action="store_true", help="plain integers (default)")
    group.add_argument("--mod", type=positive_int, metavar="M", help="integers mod M")
    group.add_argument("--vec", type=positive_int, metavar="D", help="integer vectors of dimension D")
    p._negative_number_matcher = _SignedValueMatcher
    p.set_defaults(func=cmd_extrapolate)

    p = sub.add_parser("cover", help="covering-multiplicity window checks")
    p.add_argument("source", nargs="?", help="residue system file, or - for stdin")
    p.add_argument(
        "--classes",
        nargs="+",
        metavar="'A mod N'",
        help="inline residue classes instead of a file",
    )
    p.add_argument("--start", type=int, default=0, help="first x of the inspected window")
    p.add_argument("--odd", action="store_true", help="test for an odd cover")
    p.add_argument(
        "--check",
        nargs=2,
        type=int,
        metavar=("M", "A"),
        help="test whether every multiplicity lies in A (mod M)",
    )
    p.add_argument(
        "--gcd-window",
        nargs=2,
        type=int,
        metavar=("A", "B"),
        help="gcd of multiplicity(A+r)+B over the window",
    )
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("finewilf", help="difference gcd of two integer periodic maps")
    p.add_argument("--first", nargs="+", type=int, required=True, metavar="V")
    p.add_argument("--second", nargs="+", type=int, required=True, metavar="V")
    p.add_argument("--first-period", type=positive_int, help="declared period (default: count)")
    p.add_argument("--second-period", type=positive_int, help="declared period (default: count)")
    p.set_defaults(func=cmd_finewilf)

    return parser


def cmd_spectrum(args) -> dict:
    ps = PeriodSystem(tuple(args.periods))
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
    poly = characteristic_poly(ps)
    return {
        "periods": [str(n) for n in ps.periods],
        "divisor_closure": [str(d) for d in ps.divisor_closure],
        "degree": str(poly.degree),
        "charpoly": [str(c) for c in poly.coeffs],
    }


def cmd_coeffs(args) -> dict | None:
    ps = PeriodSystem(tuple(args.periods))
    table = coefficient_table(ps, max_rows=args.max_rows)
    doc = table_to_json_dict(table)
    if args.out:
        text = _dumps(doc)
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
        return None
    return doc


def cmd_extrapolate(args) -> dict:
    ps = PeriodSystem(tuple(args.periods))
    if args.mod is not None:
        group = {"group": "mod", "modulus": str(args.mod)}
        parse = lambda tok: ModInt(int(tok), args.mod)  # noqa: E731
        to_json = lambda value: str(value.value)  # noqa: E731
    elif args.vec is not None:
        group = {"group": "vec", "dimension": str(args.vec)}

        def parse(tok: str) -> IntVector:
            entries = tuple(int(part) for part in tok.split(","))
            if len(entries) != args.vec:
                raise ValueError(
                    f"expected {args.vec} comma-separated entries, got {tok!r}"
                )
            return IntVector(entries)

        to_json = lambda value: [str(a) for a in value.entries]  # noqa: E731
    else:
        group = {"group": "int"}
        parse, to_json = int, str
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.func(args)
    except TableSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if doc is not None:
            print(_dumps(doc), flush=True)
    except BrokenPipeError:
        # reader gone: exit 2 as for an unwritable --out; devnull quiets the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 0


def run() -> None:
    raise SystemExit(main())
