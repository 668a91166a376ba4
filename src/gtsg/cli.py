"""Command-line front end.

Subcommands:
  info       closed-form summary for one (n, k)
  apery      closed-form Apery set listing for one (n, k)
  frobenius  closed-form Frobenius number only (never enumerates)
  oracle     generic computations on an explicit generator list
  verify     closed-form vs oracle sweep over a parameter grid

Each subcommand computes its result and hands one builder per format to
``_write``, which runs only the builder of ``--format`` and writes its
text to stdout.  Exit codes: 0 success / all match, 1 verification
mismatch, 2 usage or input error or any other failure.  JSON output serializes every integer
as a decimal string so consumers never lose precision.  CSV output is
written by ``_csv_text`` in the default dialect of Python's csv module.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import thabit, verify
from .oracle import SemigroupError, make_semigroup
# by name: perfbench's tracer swaps cli.thabit for a namespace of its public
# functions only
from .thabit import _apery_decoded

DEFAULT_APERY_CAP = 1_000_000


class TooLarge(ValueError):
    """Enumeration refused because s_0, a table modulus or verify's largest
    s_0 exceeds the cap; raising GTSG_S0_CAP lifts it."""


def _apery_cap() -> int:
    env = os.environ.get("GTSG_S0_CAP")
    if not env:
        return DEFAULT_APERY_CAP
    try:
        cap = int(env)
        if cap >= 0:
            return cap
    except ValueError:
        pass
    raise ValueError(f"GTSG_S0_CAP must be a non-negative integer, got {env!r}")


def _jsonify(obj):
    """Recursively turn ints into decimal strings for lossless JSON."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        return {key: _jsonify(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(value) for value in obj]
    return obj


def _csv_text(rows) -> str:
    """``rows`` as the text ``csv.writer(buf).writerows(rows)`` would write,
    a list cell written as its items' ``str()`` joined by spaces.

    The default (excel) dialect: None is an empty cell, any other value is
    its ``str()``; a cell holding ``,``, ``"``, CR or LF is quoted with its
    ``"`` doubled, a row of one empty cell is written ``""``, and every row
    ends in ``"\r\n"``.  The cells and separators go into one flat list and
    are joined once, so a large cell is copied once.  A list cell whose
    items hold none of those characters nor a space needs no quoting, so
    its items go into that list as they are, with " " between them, and
    the cell is never joined on its own.
    """
    out = []
    push = out.append
    for row in rows:
        start = len(out)
        for value in row:
            if isinstance(value, list):
                items = list(map(str, value))
                if items and not any(c in item for item in items for c in ',"\r\n '):
                    for item in items:
                        push(item)
                        push(" ")
                    out[-1] = ","       # in place of the cell's last " "
                    continue
                value = " ".join(items)
            cell = "" if value is None else str(value)
            if '"' in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            elif "," in cell or "\n" in cell or "\r" in cell:
                cell = '"' + cell + '"'
            push(cell)
            push(",")
        if len(out) == start:
            push("\r\n")
        else:
            if len(out) == start + 2 and not out[start]:
                out[start] = '""'
            out[-1] = "\r\n"    # in place of the row's last ","
    return "".join(out)


# _write hands stdout at most this many characters at a time
_WRITE_SLICE = 1 << 20


def _write(fmt: str, **builders) -> None:
    """Render a result in ``fmt`` and write it to stdout.

    ``builders`` maps each format to a function of no arguments, and only
    the one for ``fmt`` runs: ``json`` returns an object, dumped with sorted
    keys; ``csv`` returns rows, written by ``_csv_text``; ``text`` returns
    the text itself.  The text goes out in slices of at most 1 MiB, so the
    stream never encodes a whole large output into one more copy.
    """
    build = builders[fmt]
    if fmt == "json":
        out = json.dumps(build(), sort_keys=True) + "\n"
    elif fmt == "csv":
        out = _csv_text(build())
    else:
        out = build()
    write = sys.stdout.write
    for i in range(0, len(out), _WRITE_SLICE):
        write(out[i:i + _WRITE_SLICE])


def _spaced(values) -> str:
    return " ".join(map(str, values))


def _digit_list(digits) -> list[str]:
    return list(map(str, digits))


def _record_rows(data: dict) -> list:
    """A record as csv rows: its keys, then its values (``_csv_text`` writes
    a list space-separated)."""
    return [list(data), list(data.values())]


def cmd_info(args) -> int:
    n, k = args.n, args.k
    s0 = thabit.generator_at(n, k, 0)
    # already decimal strings: every format prints them as they are
    gens = thabit.generator_decimals(n, k)
    max_apery = thabit.max_apery(n, k)
    data = {
        "n": n,
        "k": k,
        "generators": gens,
        "delta": thabit.delta(n, k),
        "e": thabit.embedding_dimension(n, k),
        "case": thabit.case_of(n, k).name,
        "max_apery": max_apery,
        "frobenius": max_apery - s0,
        "genus": None,
    }
    # the genus is cheap at any size, but info's output above s0 = 10^6
    # stays as it is until an output budget replaces the cap
    if s0 <= _apery_cap():
        data["genus"] = thabit.genus_closed(n, k)

    def text():
        genus = data["genus"]
        if genus is None:
            genus = "(skipped: s0 exceeds enumeration cap; raise GTSG_S0_CAP)"
        rest = (f"\ndelta = {data['delta']}\n"
                f"e = {data['e']}\n"
                f"case = {data['case']}\n"
                f"max_apery = {max_apery}\n"
                f"F = {data['frobenius']}\n"
                f"genus = {genus}\n")
        # one join, so the generators are copied into the text only once
        return " ".join([f"GT({n},{k})\ngenerators =", *gens[:-1], gens[-1] + rest])

    _write(args.format, json=lambda: _jsonify(data), csv=lambda: _record_rows(data), text=text)
    return 0


def _check_cap(what: str, size: int) -> None:
    """Raise TooLarge when ``size`` exceeds the cap."""
    cap = _apery_cap()
    if size > cap:
        raise TooLarge(f"{what} = {size} exceeds the enumeration cap {cap}; "
                       "raise GTSG_S0_CAP to lift it")


def cmd_apery(args) -> int:
    n, k = args.n, args.k
    s0 = thabit.generator_at(n, k, 0)
    _check_cap("s0", s0)

    # one thabit listing a command, made inside the builder so that no
    # list outlives it: the values, and the coefficient sequences if
    # printed, decoded straight into the builder's form (``form`` and
    # ``sep`` as _apery_decoded takes them)
    def listing(form, sep):
        if not (args.with_coeffs or args.format == "csv"):
            return thabit.apery_set_closed(n, k), None
        return _apery_decoded(n, k, form, sep)

    def record():
        # decimal strings in bulk, not through _jsonify
        values, coeffs = listing(_digit_list, [])
        data = {"n": str(n), "k": str(k), "s0": str(s0), "apery": list(map(str, values))}
        if coeffs is not None:
            data["coeffs"] = coeffs
        return data

    def rows():
        values, coeffs = listing(_spaced, " ")
        yield ("residue", "value", "coeffs")
        yield from zip((v % s0 for v in values), values, coeffs)

    def text():
        values, coeffs = listing(_spaced, " ")
        if coeffs is None:
            return "\n".join(map(str, values)) + "\n"
        return "".join(f"{v} {c}\n" for v, c in zip(values, coeffs))

    _write(args.format, json=record, csv=rows, text=text)
    return 0


def cmd_frobenius(args) -> int:
    value = thabit.frobenius_closed(args.n, args.k)
    data = {"n": args.n, "k": args.k, "frobenius": value}
    _write(args.format, json=lambda: _jsonify(data), csv=lambda: _record_rows(data),
           text=lambda: f"F = {value}\n")
    return 0


def cmd_oracle(args) -> int:
    what = args.what
    if args.x is not None and what not in ("apery", "membership"):
        raise ValueError("--x applies only to apery and membership")
    gens = make_semigroup(int(x) for x in args.gens.split(","))
    # every table is taken mod the smallest generator, and apery's mod --x too
    modulus = gens.gens[0]
    if what == "apery" and args.x is not None:
        modulus = max(modulus, args.x)
    _check_cap("modulus", modulus)
    if what == "apery":
        table = gens.apery_set(args.x)
        values = sorted(table.w)
        data = {"gens": list(gens.gens), "modulus": table.modulus, "apery": values}
        text = lambda: _spaced(values) + "\n"
    elif what == "frobenius":
        data = {"gens": list(gens.gens), "frobenius": gens.frobenius()}
        text = lambda: f"{data['frobenius']}\n"
    elif what == "genus":
        data = {"gens": list(gens.gens), "genus": gens.genus()}
        text = lambda: f"{data['genus']}\n"
    else:  # membership
        if args.x is None:
            raise SemigroupError("membership requires --x")
        member = gens.is_member(args.x)
        data = {"gens": list(gens.gens), "x": args.x, "member": member}
        text = lambda: "member\n" if member else "not-member\n"
    if args.format == "csv":
        # Kept byte for byte while perfbench/checks.py parses it: no gens
        # column, and apery as the unquoted Python list repr.  Deleting this
        # branch hands csv to the writer below.
        keys = [key for key in data if key != "gens"]
        legacy = ",".join(keys) + "\n" + ",".join(str(data[key]) for key in keys) + "\n"
        _write("text", text=lambda: legacy)
        return 0
    _write(args.format, json=lambda: _jsonify(data), csv=lambda: _record_rows(data), text=text)
    return 0


def cmd_verify(args) -> int:
    _check_cap("s0-max", args.s0_max)
    report = verify.verify_grid(
        n_max=args.n_max, k_max=args.k_max, s0_max=args.s0_max, jobs=args.jobs
    )

    def notes(p):
        return [f"{m.field}: closed={m.closed_value} oracle={m.oracle_value}"
                for m in p.mismatches]

    def record():
        points = [{"n": p.n, "k": p.k, "s0": p.s0, "status": "match" if p.ok else "mismatch",
                   "mismatches": [vars(m) for m in p.mismatches]} for p in report.points]
        return _jsonify({"total": report.total, "mismatched": len(report.mismatched),
                         "points": points})

    def rows():
        yield ("n", "k", "s0", "status", "detail")
        for p in report.points:
            yield (p.n, p.k, p.s0, "match" if p.ok else "mismatch", "; ".join(notes(p)))

    def text():
        lines = [f"GT({p.n},{p.k}) s0={p.s0} {'match' if p.ok else 'MISMATCH'}"
                 + "".join(f" [{note}]" for note in notes(p))
                 for p in report.points]
        lines.append(f"{report.total} points, {len(report.mismatched)} mismatched")
        return "\n".join(lines) + "\n"

    _write(args.format, json=record, csv=rows, text=text)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtsg",
        description="Closed forms and oracle checks for the GT(n,k) "
        "numerical-semigroup family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formats = ("text", "json", "csv")

    def add_nk(p):
        p.add_argument("--n", type=int, required=True, help="exponent offset n >= 0")
        p.add_argument("--k", type=int, required=True, help="coefficient index k >= 1")
        p.add_argument("--format", choices=formats, default="text")

    p_info = sub.add_parser("info", help="closed-form summary for GT(n,k)")
    add_nk(p_info)
    p_info.set_defaults(func=cmd_info)

    p_apery = sub.add_parser("apery", help="closed-form Apery set of GT(n,k)")
    add_nk(p_apery)
    p_apery.add_argument("--with-coeffs", action="store_true",
                         help="include the coefficient sequence per value")
    p_apery.set_defaults(func=cmd_apery)

    p_fr = sub.add_parser("frobenius", help="closed-form Frobenius number")
    add_nk(p_fr)
    p_fr.set_defaults(func=cmd_frobenius)

    p_oracle = sub.add_parser("oracle", help="generic semigroup computations")
    p_oracle.add_argument("--gens", required=True,
                          help="comma-separated generators, e.g. 7,11,13")
    p_oracle.add_argument("what",
                          choices=("apery", "frobenius", "genus", "membership"))
    p_oracle.add_argument("--x", type=int, default=None,
                          help="Apery modulus / membership candidate")
    p_oracle.add_argument("--format", choices=formats, default="text")
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="closed-form vs oracle sweep")
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--k-max", type=int, default=None)
    p_verify.add_argument("--s0-max", type=int, default=verify.DEFAULT_S0_MAX)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--format", choices=formats, default="text")
    p_verify.set_defaults(func=cmd_verify)

    return parser


# built once a process: in-process callers of main parse with the same parser
_PARSER = build_parser()


def _glue_gens(argv: list[str]) -> list[str]:
    """Write ``--gens -3,5`` as ``--gens=-3,5``.

    argparse takes a value that starts with "-" and is not a plain number
    for an option, so ``-3,5`` would be a usage error instead of reaching
    ``make_semigroup``, which reports the negative generator.  No option
    starts with "-" and a digit.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--gens" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--gens={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = _PARSER.parse_args(_glue_gens(sys.argv[1:] if argv is None else argv))
    # closed forms reach thousands of digits; print them whole (Python
    # refuses int <-> str beyond 4300 digits by default)
    max_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ValueError as exc:
        # SemigroupError, TooLarge, and n < 0 or k < 1 (checked before any work)
        print(f"gtsg: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # any other error is a fault, not a mismatch: exit 1 means only that
        print(f"gtsg: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(max_digits)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
