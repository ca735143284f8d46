"""Command line front end; every subcommand prints one JSON document.

All numbers inside the JSON are decimal strings, never JSON numbers, so
arbitrary-precision values survive any consumer's parser unchanged. Every
document, on stdout or in a `coeffs --out` file, is the bytes of
`json.dumps(doc, indent=2)` plus a newline, laid out by one writer, `_write`.
A `coeffs` document holds its table's rows as a generator, the
`reconstruction.table_walk` of its recurrence with each cell made its quoted
decimal string; `_write` writes each row as one piece as the walk yields it,
so no table, no whole text and no per-cell lookup is needed.
Every integer on the command line is read by the rule of `numth.strict_int`
(`strict_ints` for a list of them), the rule for documents too: ASCII
digits after an optional '-', so a space, '+', '_' or another script's digit
exits 2. A --vec value joins its entries with
commas alone, as in 1,-2. `extrapolate` builds no group object: --int and
--mod values are ints, and --vec values d-tuples of ints, d int columns
rebuilt against one row (`reconstruction.extrapolate`).
The grammar is one table, `_COMMANDS`. `main` reads a valid command line
from it with `_read`, which imports no argparse, gettext or locale. Help,
every error, and any line `_read` leaves alone go to argparse, built from
the same table by `build_parser`, which prints and exits as it always has.
Both read values by one rule on every subcommand: a token of '-' then a
digit is a value, never an option, so -1,2, '-1 mod 6' and -1.json read
as given.
Exit codes: 0 success, 2 usage or parse error, 3 a table, spectrum or single
row over its cap (`reconstruction`), refused before any other work.
"""

from __future__ import annotations

import json  # noqa: F401  perfbench/tracing.py traces persum.cli.json.dumps by name
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii
from types import GeneratorType, SimpleNamespace

from .covering import (
    all_in_class,
    maximal_moduli_distinct,
    # not called here; perfbench/tracing.py wraps persum.cli.multiplicity by name
    multiplicity,  # noqa: F401
    multiplicity_window,
    parse_residue_system,
    window_gcd,
)
from .cyclotomic import characteristic_poly
from .numth import strict_int, strict_ints
from .reconstruction import (
    PeriodicMap,
    TableSizeError,
    check_size,
    # not called here; perfbench/tracing.py wraps persum.cli.coefficient_table by name
    coefficient_table,  # noqa: F401
    extrapolate,
    finewilf_difference_gcd,
    table_json_fields,
    table_recurrence,
    table_walk,
    # not called here; perfbench/tracing.py wraps persum.cli.table_to_json_dict by name
    table_to_json_dict,  # noqa: F401
)
from .spectrum import (
    PeriodSystem,
    build_spectrum,
    size_by_inclusion_exclusion,
    size_by_phi,
)


def integer(text: str) -> int:
    """argparse type for an integer option: `strict_int`, with the one message
    argparse prints for every malformed argv integer."""
    try:
        return strict_int(text)
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def positive_int(text: str) -> int:
    value = integer(text)
    if value < 1:
        import argparse

        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def build_parser():
    """The argparse parser of all six subcommands, built from `_COMMANDS`.
    `main` runs it only on argv that `_read` leaves to it: help, errors and
    readings only argparse settles. argparse's own pattern for a value that
    starts with '-' takes plain numbers alone; each subparser's takes '-'
    then a decimal digit, as `_is_value` does, and leaves the rest of the
    token to the argument's type."""
    import argparse
    import re

    parser = argparse.ArgumentParser(
        prog="persum",
        description="Exact spectra, reconstruction tables, and covering-system checks "
        "for sums of periodic maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, group, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = re.compile(r"-\d")
        exclusive = p.add_mutually_exclusive_group() if group else None
        for flag, spec in arguments:
            (exclusive if flag in group else p).add_argument(flag, **spec)
        p.set_defaults(func=handler)
    return parser


def _is_value(token: str) -> bool:
    """Whether argparse surely reads token as a value: it does not start
    with '-', or is '-' alone, or is '-' then an ASCII digit and anything.
    ('' is in every string, so '-' alone passes the second test.)"""
    return token[:1] != "-" or token[1:2] in "0123456789"


# how many value tokens an argument takes, least and most, by its nargs
_COUNTS = {None: (1, 1), 2: (2, 2), "?": (0, 1), "+": (1, math.inf), "store_true": (0, 0)}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, read from
    `_COMMANDS` without argparse, or None unless argv is plainly valid: the
    command, then its exact option strings, each once and with the values
    its nargs takes, and at most one run of positional values. Every integer
    passes `strict_ints` (and is positive where the argument says so), every
    required argument is there, and at most one flag of the exclusive group.
    argparse answers the rest: help, errors, and the readings (abbreviations,
    --opt=value, --, repeats) this leaves to it."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, group, arguments = _COMMANDS[argv[0]]
    specs = dict(arguments)
    positional = next((name for name, _ in arguments if name[0] != "-"), None)
    given: dict[str, list[str]] = {}  # flag or positional -> its value tokens
    i = 1
    while i < len(argv):
        name = argv[i]
        if _is_value(name):
            name = positional
        else:
            i += 1
        if name not in specs or name in given:
            return None
        spec = specs[name]
        least, most = _COUNTS[spec.get("action", spec.get("nargs"))]
        run = i
        while run < len(argv) and run - i < most and _is_value(argv[run]):
            run += 1
        if run - i < least:
            return None
        given[name], i = argv[i:run], run
    if sum(flag in given for flag in group) > 1:
        return None
    values = {"command": argv[0]}
    for name, spec in arguments:
        tokens = given.get(name)
        if tokens is None:
            if spec.get("required") or name == positional and spec["nargs"] == "+":
                return None
            value = spec.get("default", False if "action" in spec else None)
        elif "action" in spec:
            value = True
        else:
            if "type" in spec:
                try:
                    tokens = strict_ints(tokens)
                except ValueError:
                    return None
                if spec["type"] is positive_int and min(tokens) < 1:
                    return None
            value = tokens if spec.get("nargs") in ("+", 2) else tokens[0]
        values[spec.get("dest", name.lstrip("-").replace("-", "_"))] = value
    return SimpleNamespace(**values, func=handler)


def cmd_spectrum(args) -> dict:
    ps = PeriodSystem(tuple(args.periods))
    check_size(ps)
    sp = build_spectrum(ps)
    sizes = (len(sp), size_by_phi(ps), size_by_inclusion_exclusion(ps))
    return {
        "periods": [str(n) for n in ps.periods],
        "elements": sp.labels(),
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


def cmd_coeffs(args) -> dict | None:
    ps = PeriodSystem(tuple(args.periods))
    recurrence = table_recurrence(ps)  # sized and refused before the file is opened
    rows = table_walk(recurrence, ps.modulus, _QuotedCell().__getitem__)
    doc = {**table_json_fields(ps, recurrence), "rows": rows}
    if not args.out:
        return doc
    # Write over the old bytes, then cut the file to length. Opening with
    # "w" would truncate to zero first, and ext4 sends a file truncated to
    # zero and rewritten to disk when it is closed, so the next overwrite
    # of it waits for that write: 50-100 ms per table instead of 0.01 ms.
    fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        _write(doc, "\n", fh.write)
        fh.write("\n")
        if stat.S_ISREG(os.fstat(fd).st_mode):  # /dev/null cannot be cut
            fh.truncate()
    return None


def _vec_entries(tokens: list[str], d: int) -> list[int]:
    """The entries of the --vec values, flat and in order, read by
    `strict_ints`. The values are refused in order, as if read one by one:
    the first malformed one for its first malformed entry, else for not
    having d entries."""
    counts = [token.count(",") for token in tokens]
    short = len(tokens)
    if counts.count(d - 1) != short:
        short = next(i for i, n in enumerate(counts) if n != d - 1)
    entries = strict_ints(",".join(tokens[:short + 1]).split(","))
    if short < len(tokens):
        raise ValueError(f"expected {d} comma-separated entries, got {tokens[short]!r}")
    return entries


def cmd_extrapolate(args) -> dict:
    ps = PeriodSystem(tuple(args.periods))
    m, d = args.mod, args.vec
    try:
        entries = strict_ints(args.initial) if d is None else _vec_entries(args.initial, d)
    except ValueError as exc:
        raise ValueError(f"bad initial value: {exc}") from None
    if m is not None:
        # Z -> Z_M is a homomorphism: the values are reduced into [0, M) and
        # extrapolated over Z, and the result is reduced once
        group = {"group": "mod", "modulus": str(m)}
        entries = [v % m for v in entries]
    elif d is not None:
        group = {"group": "vec", "dimension": str(d)}
    else:
        group = {"group": "int"}
    texts = list(map(str, entries))
    if d is None:
        value = extrapolate(ps, entries, args.at)
        initial, value = texts, str(value if m is None else value % m)
    else:
        # zip over d references to one iterator cuts a flat list into d-tuples
        initial = list(map(list, zip(*[iter(texts)] * d)))
        value = list(map(str, extrapolate(ps, list(zip(*[iter(entries)] * d)), args.at)))
    return {
        "periods": [str(n) for n in ps.periods],
        **group,
        "x": str(args.at),
        "initial": initial,
        "value": value,
    }


def _load_system(args):
    if args.classes and args.source:
        raise ValueError("give either a source file or --classes, not both")
    if args.classes:
        text = "\n".join(args.classes)
    elif args.source == "-":
        text = sys.stdin.read()
    elif args.source:
        with open(args.source) as fh:
            text = fh.read()
    else:
        raise ValueError("no residue system given (file path, -, or --classes)")
    return parse_residue_system(text)


def cmd_cover(args) -> dict:
    """The multiplicity window of length l from --start, and each verdict asked
    for. A window holds at most k + 1 distinct values for k classes, so each
    verdict is taken over the window's set, and each value's text is made once."""
    system = _load_system(args)
    if args.check is not None and args.check[0] < 1:
        raise ValueError(f"check modulus must be positive, got {args.check[0]}")
    length = system.window_length()
    window = multiplicity_window(system, args.start, length)
    seen = set(window)
    doc = {
        "classes": [[str(c.residue), str(c.modulus)] for c in system.classes],
        "window_length": str(length),
        "start": str(args.start),
        "window": list(map({v: str(v) for v in seen}.__getitem__, window)),
        "maximal_moduli_distinct": maximal_moduli_distinct(system),
    }
    if args.odd:
        doc["odd_cover"] = all_in_class(seen, 2, 1)
    if args.check is not None:
        m, a = args.check
        doc["class_check"] = {
            "m": str(m),
            "a": str(a % m),
            "ok": all_in_class(seen, m, a),
            "window": doc["window"],
        }
    if args.gcd_window is not None:
        a, b = args.gcd_window
        value = window_gcd(multiplicity_window(system, a, length), b)
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
        "window_length": str(size_by_inclusion_exclusion(PeriodSystem((g.period, h.period)))),
        "difference_gcd": str(diff_gcd),
        "identical": diff_gcd == 0,
    }


_PERIODS = ("periods", {"nargs": "+", "type": positive_int, "metavar": "PERIOD"})
_DECLARED = {"type": positive_int, "help": "declared period (default: count)"}

# The grammar, one entry per command in the order `persum --help` lists them:
# its help and handler; its mutually exclusive flags; and its arguments, each
# a flag or the positional's dest with argparse's keywords for it. An option's
# dest is argparse's, from its flag, unless given. `build_parser` hands the
# keywords to argparse, and `_read` reads valid argv by them without it.
_COMMANDS = {
    "spectrum": ("enumerate a period list's spectrum and its size", cmd_spectrum, (), (_PERIODS,)),
    "charpoly": ("characteristic polynomial of the spectrum", cmd_charpoly, (), (_PERIODS,)),
    "coeffs": ("emit the full reconstruction coefficient table", cmd_coeffs, (), (
        _PERIODS,
        ("--out", {"metavar": "PATH", "help": "write the JSON document here instead of stdout"}),
    )),
    "extrapolate": ("reconstruct a value from initial values", cmd_extrapolate, ("--int", "--mod", "--vec"), (
        ("--periods", {"nargs": "+", "type": positive_int, "required": True, "metavar": "PERIOD"}),
        ("--initial", {"nargs": "+", "required": True, "metavar": "VALUE", "help":
                       "the map's values at 0..l-1; with --vec each value is d comma-separated ints"}),
        ("--at", {"type": integer, "required": True, "metavar": "X",
                  "help": "argument to reconstruct at"}),
        ("--int", {"dest": "group_int", "action": "store_true", "help": "plain integers (default)"}),
        ("--mod", {"type": positive_int, "metavar": "M", "help": "integers mod M"}),
        ("--vec", {"type": positive_int, "metavar": "D", "help": "integer vectors of dimension D"}),
    )),
    "cover": ("covering-multiplicity window checks", cmd_cover, (), (
        ("source", {"nargs": "?", "help": "residue system file, or - for stdin"}),
        ("--classes", {"nargs": "+", "metavar": "'A mod N'",
                       "help": "inline residue classes instead of a file"}),
        ("--start", {"type": integer, "default": 0, "help": "first x of the inspected window"}),
        ("--odd", {"action": "store_true", "help": "test for an odd cover"}),
        ("--check", {"nargs": 2, "type": integer, "metavar": ("M", "A"),
                     "help": "test whether every multiplicity lies in A (mod M)"}),
        ("--gcd-window", {"nargs": 2, "type": integer, "metavar": ("A", "B"),
                          "help": "gcd of multiplicity(A+r)+B over the window"}),
    )),
    "finewilf": ("difference gcd of two integer periodic maps", cmd_finewilf, (), (
        ("--first", {"nargs": "+", "type": integer, "required": True, "metavar": "V"}),
        ("--second", {"nargs": "+", "type": integer, "required": True, "metavar": "V"}),
        ("--first-period", _DECLARED),
        ("--second-period", _DECLARED),
    )),
}


class _QuotedCell(dict):
    """The JSON token of a table cell, its quoted decimal string, made once
    per distinct value: a table holds few. Every cell that `table_walk`
    passes in is an int it computed, so a memo keyed by value is exact."""

    def __missing__(self, cell: int) -> str:
        token = self[cell] = f'"{cell}"'
        return token


def _needs_no_escape(text: str) -> bool:
    """Whether json.dumps writes every string of which text is the join as
    itself in quotes: printable ASCII without `"` or `\\`."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _write(value, indent: str, emit) -> None:
    """Pass to emit, in pieces, the text of `json.dumps(value, indent=2)` for
    a tree of str-keyed dicts, lists, strings, booleans and generators of
    rows, each row a nonempty list of ready JSON tokens, such as the rows of
    quoted cells that `table_walk` yields: written as a list of lists, one
    piece per row. indent is the newline and indent of the enclosing level.
    Any other value, a tuple included, raises TypeError.

    `json.dumps` runs its pure-Python encoder whenever `indent` is set. Here
    a list of strings that need no escape (printable ASCII without `"` or
    `\\`, one test over their join) is written by a single join, and a list
    of nonempty such lists, as the echo of `extrapolate --vec`, by one join
    of those; any other string is quoted by `json`'s own escaper, so the
    text stays exact. A generator's rows are written as it yields them, so
    no table is held.
    """
    if isinstance(value, str):
        emit(encode_basestring_ascii(value))
    elif value is True or value is False:
        emit("true" if value else "false")
    elif isinstance(value, GeneratorType):
        inner = indent + "  "
        cell = inner + "  "
        comma = "," + cell
        sep = "[" + inner
        for row in value:
            # one f-string, so the row's text is copied once
            emit(f"{sep}[{cell}{comma.join(row)}{inner}]")
            sep = "," + inner
        emit("[]" if sep[0] == "[" else indent + "]")
    elif not isinstance(value, (dict, list)):
        raise TypeError(f"{type(value).__name__} is not a persum JSON value")
    elif not value:
        emit("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = indent + "  "
        sep = "{" + inner
        for key, item in value.items():
            emit(sep + encode_basestring_ascii(key) + ": ")
            _write(item, inner, emit)
            sep = "," + inner
        emit(indent + "}")
    else:
        inner = indent + "  "
        sep = "[" + inner
        try:
            joined = "".join(value)
        except TypeError:  # not all strings
            try:
                nested = all(type(item) is list and item for item in value) and "".join(map("".join, value))
            except TypeError:  # not all lists of strings
                nested = ""
            if nested and _needs_no_escape(nested):
                cell = inner + "  "
                quote = '",' + cell + '"'
                emit(sep + ("," + inner).join([f'[{cell}"{quote.join(item)}"{inner}]' for item in value]))
            else:
                for item in value:
                    emit(sep)
                    _write(item, inner, emit)
                    sep = "," + inner
        else:
            if _needs_no_escape(joined):
                emit(sep + '"' + ('",' + inner + '"').join(value) + '"')
            else:
                emit(sep + ("," + inner).join(map(encode_basestring_ascii, value)))
        emit(indent + "]")


def _error(exc: Exception) -> None:
    """Print the one `error:` line. Where stderr cannot take it, devnull takes
    what stderr holds, so its exit flush cannot change the exit code."""
    try:
        print(f"error: {exc}", file=sys.stderr, flush=True)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:  # help, an error, or a reading only argparse settles
        args = build_parser().parse_args(argv)
    try:
        doc = args.func(args)  # a document, or None once written
    except TableSizeError as exc:
        _error(exc)
        return 3
    except (ValueError, OSError) as exc:
        _error(exc)
        return 2
    try:
        if doc is not None:
            _write(doc, "\n", sys.stdout.write)
            sys.stdout.write("\n")
            sys.stdout.flush()
    except OSError as exc:
        # exit 2 as for an unwritable --out, saying why unless the reader is
        # gone; devnull quiets the exit flush of what stdout still holds
        if not isinstance(exc, BrokenPipeError):
            _error(exc)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 0


def run() -> None:
    raise SystemExit(main())
