"""Command-line front end.

Subcommands:
  info       closed-form summary for one (n, k)
  apery      closed-form Apery set listing for one (n, k)
  frobenius  closed-form Frobenius number only (never enumerates)
  oracle     generic computations on an explicit generator list
  verify     closed-form vs oracle sweep over a parameter grid

Each subcommand computes and checks its result, then hands one builder
per format to ``_write``, the one sink, which runs only the builder of
``--format`` and streams what it gives to stdout about 1 MiB at a time.
Exit codes: 0 success / all match, 1 verification mismatch, 2 usage or
input error or any other failure.  JSON output serializes every integer
as a decimal string so consumers never lose precision; ``_json_batches``
writes it byte for byte as the json module's ``dumps`` with sorted keys
would.  Text and CSV builders write their own lines; a CSV row goes
through ``_csv_line``, byte for byte as Python's csv module's default
dialect writes it.  A list of decimal strings goes out a batch at a time
in C-level joins, with no per-item escaping or quoting.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str

from . import thabit, verify
from .oracle import SemigroupError, make_semigroup
# by name: perfbench's tracer swaps cli.thabit for a namespace of its public
# functions only
from .thabit import _apery_decoded

DEFAULT_APERY_CAP = 1_000_000

# what a command holds at once: apery's values a batch, and the characters
# _write gathers before it writes (info's generators: about 80 kB a batch)
_BATCH = 4096
_FLUSH = 1 << 20


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


@dataclass
class _Batched:
    """A JSON list as an iterable of batches (lists) of its items, which
    ``_json_batches`` writes as they come; text and CSV builders read the
    batches themselves.  With ``arrays`` an item is the JSON text of an
    array's items: ``[['"0", "1"', '"2"']]`` is written ``[["0", "1"], ["2"]]``."""

    batches: object
    arrays: bool = False


def _batches(items, size: int = _BATCH):
    """``items`` in lists of ``size``, the last one shorter."""
    items = iter(items)
    return iter(lambda: list(islice(items, size)), [])


def _digits_only(items) -> bool:
    """Whether every str in ``items`` holds only 0-9, by a table lookup a
    byte of their join, where ``str.isdigit`` takes each character's class."""
    chunk = "".join(items)
    return chunk.isascii() and not chunk.encode().translate(None, b"0123456789")


def _json_batches(obj):
    """What the json module's ``dumps(obj, sort_keys=True)`` writes, as
    batches, with every int (not bool) a decimal string; dict keys must be
    str.  A list, tuple or ``_Batched`` goes out a batch at a time, and a
    batch of ints or of strings holding only 0-9 goes in with ``", "``
    quotes between its items and no escaping; any other batch goes item by
    item, any other string through ``encode_basestring_ascii``.
    """
    if isinstance(obj, str):
        yield _json_str(obj)
    elif obj is None:
        yield "null"
    elif isinstance(obj, bool):
        yield "true" if obj else "false"
    elif isinstance(obj, int):
        yield ['"', str(obj), '"']
    elif isinstance(obj, dict):
        pre = "{"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            yield [pre, _json_str(key), ": "]
            yield from _json_batches(obj[key])
            pre = ", "
        yield "}" if pre == ", " else "{}"
    elif isinstance(obj, (list, tuple, _Batched)):
        arrays = type(obj) is _Batched and obj.arrays
        pre = "["
        for batch in obj.batches if type(obj) is _Batched else _batches(obj):
            kinds = set(map(type, batch))
            if int in kinds and kinds <= {int, str}:
                batch, kinds = list(map(str, batch)), {str}
            if batch and (arrays or kinds == {str} and _digits_only(batch)):
                # nothing to escape: the items joined in as they are, and let go
                head, sep, tail = ("[", "], [", "]") if arrays else ('"', '", "', '"')
                batch = sep.join(batch)
                yield from (pre + head, batch, tail)
                pre = ", "
                continue
            for item in batch:
                yield pre
                yield from _json_batches(item)
                pre = ", "
        yield "]" if pre == ", " else "[]"
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _csv_cell(value) -> str:
    """One cell as ``csv.writer``'s default (excel) dialect writes it: None
    is empty, a list (such as ``oracle``'s ``gens``) its items' ``str()``
    joined by spaces, any other value its ``str()``; a cell holding ``,``,
    ``"``, CR or LF is quoted with its ``"`` doubled."""
    if isinstance(value, list):
        value = " ".join(map(str, value))
    cell = "" if value is None else str(value)
    if '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    if "," in cell or "\n" in cell or "\r" in cell:
        return '"' + cell + '"'
    return cell


def _spaced_batches(batches):
    """The str items of ``batches``, " " between them, a batch at a time."""
    for at, batch in enumerate(filter(None, batches)):
        if at:
            yield " "
        yield " ".join(batch)


def _csv_line(cells) -> str:
    """What ``csv.writer(buf).writerow(cells)`` writes: each cell as
    ``_csv_cell`` writes it, "," between them, "\r\n" after; a row of one
    empty cell is written ``""``.  ``cells`` is a sized collection."""
    line = ",".join(map(_csv_cell, cells))
    return '""\r\n' if not line and len(cells) == 1 else line + "\r\n"


def _write(fmt: str, **builders) -> None:
    """Render a result in ``fmt`` and stream it to stdout: the one sink.

    ``builders`` maps each format to a function of no arguments, and only
    the one for ``fmt`` runs: ``json`` returns an object, written by
    ``_json_batches``; ``text`` and ``csv`` their batches of text, each a
    str or a list of str pieces (a CSV row through ``_csv_line``).  A
    batch is joined once, and written once about 1 MiB has gathered.
    """
    render = _json_batches if fmt == "json" else iter
    held, size = [], 0
    for batch in render(builders[fmt]()):
        held.append(batch if type(batch) is str else "".join(batch))
        size += len(held[-1])
        if size >= _FLUSH:
            # the pieces go before the joined text is encoded
            held, size = ["".join(held)], 0
            sys.stdout.write(held.pop())
    held.append("\n" if fmt == "json" else "")
    sys.stdout.write("".join(held))


def _spaced(values) -> str:
    return " ".join(map(str, values))


def _json_items(digits) -> str:
    """Digits as the items of a JSON array of decimal strings."""
    return ", ".join(map('"{}"'.format, digits))


def cmd_info(args) -> int:
    n, k = args.n, args.k
    s0 = thabit.generator_at(n, k, 0)
    e = thabit.embedding_dimension(n, k)
    # already decimal strings, so every format prints them as they are, as
    # they are made: batches of about 80 kB, s_(e-1) having n + e + k bits
    gens = _Batched(_batches(thabit.generator_decimals(n, k), max(1, (1 << 18) // (n + e + k))))
    max_apery = thabit.max_apery(n, k)
    data = {
        "n": n,
        "k": k,
        "generators": gens,
        "delta": thabit.delta(n, k),
        "e": e,
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
        yield f"GT({n},{k})\ngenerators = "
        yield from _spaced_batches(gens.batches)
        yield (f"\ndelta = {data['delta']}\n"
               f"e = {e}\n"
               f"case = {data['case']}\n"
               f"max_apery = {max_apery}\n"
               f"F = {data['frobenius']}\n"
               f"genus = {genus}\n")

    def table():
        # the header, n, k, the generators as they are made (digits and
        # spaces, which csv never quotes), then the fields after them
        yield [_csv_line(data), f"{n},{k},"]
        yield from _spaced_batches(gens.batches)
        yield [",", _csv_line(list(data.values())[3:])]

    _write(args.format, json=lambda: data, csv=table, text=text)
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

    csv = args.format == "csv"

    # one thabit listing a command, made and checked inside the builder
    # before its first batch: the values, and if printed their codes and
    # ``render``, which decodes a slice of codes straight into the
    # builder's form (``form`` and ``sep`` as _apery_decoded takes them)
    def listing(form, sep):
        if not (args.with_coeffs or csv):
            return thabit.apery_set_closed(n, k), None, None
        return _apery_decoded(n, k, form, sep)

    def record():
        # each sequence already the items of its JSON array; the values go
        # as soon as they are written, before the sequences are decoded
        values, codes, render = listing(_json_items, ", ")
        data = {"n": n, "k": k, "s0": s0, "apery": _Batched(_batches(values))}
        if codes is not None:
            data["coeffs"] = _Batched((render(codes[at:at + _BATCH])
                                       for at in range(0, len(codes), _BATCH)), arrays=True)
        return data

    def lines():
        # text and csv: a line a value, _BATCH values and their codes a
        # batch; every cell is digits and spaces, which csv never quotes,
        # so a csv line is joined here as a text line is
        values, codes, render = listing(_spaced, " ")
        sep, end = (",", "\r\n") if csv else (" ", "\n")
        if csv:
            yield "residue,value,coeffs\r\n"
        for at in range(0, len(values), _BATCH):
            batch = values[at:at + _BATCH]
            cells = [map(str, batch)]
            if csv:
                cells.insert(0, map(str, map(s0.__rmod__, batch)))
            if codes is not None:
                cells.append(render(codes[at:at + _BATCH]))
            yield [end.join(map(sep.join, zip(*cells))), end]

    _write(args.format, json=record, csv=lines, text=lines)
    return 0


def cmd_frobenius(args) -> int:
    value = thabit.frobenius_closed(args.n, args.k)
    data = {"n": args.n, "k": args.k, "frobenius": value}
    _write(args.format, json=lambda: data, text=lambda: [f"F = {value}\n"],
           csv=lambda: map(_csv_line, (data, data.values())))
    return 0


def cmd_oracle(args) -> int:
    what = args.what
    if args.x is not None and what not in ("apery", "membership"):
        raise ValueError("--x applies only to apery and membership")

    def number(item):
        try:
            return int(item)
        except ValueError:
            raise ValueError(f"--gens item {item!r} is not an integer") from None
    gens = make_semigroup(map(number, args.gens.split(",")))
    # every table is taken mod the smallest generator, and apery's mod --x too
    modulus = gens.gens[0]
    if what == "apery" and args.x is not None:
        modulus = max(modulus, args.x)
    _check_cap("modulus", modulus)
    if what == "apery":
        table = gens.apery_set(args.x)
        values = sorted(table.w)
        data = {"gens": list(gens.gens), "modulus": table.modulus, "apery": values}
        text = lambda: [_spaced(values), "\n"]
    elif what == "frobenius":
        data = {"gens": list(gens.gens), "frobenius": gens.frobenius()}
        text = lambda: [f"{data['frobenius']}\n"]
    elif what == "genus":
        data = {"gens": list(gens.gens), "genus": gens.genus()}
        text = lambda: [f"{data['genus']}\n"]
    else:  # membership
        if args.x is None:
            raise SemigroupError("membership requires --x")
        member = gens.is_member(args.x)
        data = {"gens": list(gens.gens), "x": args.x, "member": member}
        text = lambda: ["member\n" if member else "not-member\n"]
    # Kept byte for byte while perfbench/checks.py parses it: no gens
    # column, and apery as the unquoted Python list repr.  Once that check
    # reads real CSV, this builder becomes
    # lambda: [_csv_line(data), _csv_line(data.values())].
    keys = [key for key in data if key != "gens"]
    legacy = lambda: [",".join(keys), "\n", ",".join(str(data[key]) for key in keys), "\n"]
    _write(args.format, json=lambda: data, csv=legacy, text=text)
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
        return {"total": report.total, "mismatched": len(report.mismatched),
                "points": points}

    def rows():
        yield ("n", "k", "s0", "status", "detail")
        for p in report.points:
            yield (p.n, p.k, p.s0, "match" if p.ok else "mismatch", "; ".join(notes(p)))

    def text():
        for p in report.points:
            yield [f"GT({p.n},{p.k}) s0={p.s0} {'match' if p.ok else 'MISMATCH'}",
                   *(f" [{note}]" for note in notes(p)), "\n"]
        yield f"{report.total} points, {len(report.mismatched)} mismatched\n"

    _write(args.format, json=record, csv=lambda: map(_csv_line, rows()), text=text)
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
