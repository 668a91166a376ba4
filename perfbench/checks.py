"""Checks of ``gtsg`` outputs against the references in ``reference.py``.

``check(cmd, out)`` parses one command's stdout and returns a list of the
problems found; an empty list means the output is right.  The checks run
after the timed phase.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

import reference as ref
from workloads import GENUS_S0_MAX, grid

SIEVE_MAX = 5_000           # sieve Apery sets whose s_0 * max(gens) is below this

csv.field_size_limit(2**31 - 1)     # info lists hundreds of big generators in one field


class Checker:
    """Holds the reference tables already built, one per generator list."""

    def __init__(self):
        self._tables = {}

    def table(self, gens) -> list[int]:
        key = tuple(gens)
        if key not in self._tables:
            if gens[0] * gens[-1] < SIEVE_MAX:
                self._tables[key] = ref.sieve_summary(gens)["apery"]
            else:
                self._tables[key] = ref.apery_table(gens)
        return self._tables[key]

    def check(self, cmd, out: str) -> list[str]:
        try:
            return CHECKS[cmd.kind](self, cmd.params, out)
        except (ValueError, KeyError, IndexError, TypeError, csv.Error) as exc:
            return [f"unparsable output: {type(exc).__name__}: {exc}"]


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {_short(got)}, expected {_short(want)}")


def _short(value) -> str:
    text = str(value)
    return text if len(text) <= 80 else text[:77] + "..."


def check_verify(checker, params, out) -> list[str]:
    problems = []
    lines = out.splitlines()
    points = []
    for line in lines[:-1]:
        head, s0_field, status = line.split(" ", 2)
        n, k = map(int, head[3:-1].split(","))
        points.append((n, k))
        _expect(problems, f"status of GT({n},{k})", status, "match")
        _expect(problems, f"s0 of GT({n},{k})", s0_field, f"s0={ref.gt_generator(n, k, 0)}")
    want = grid(params["s0_max"])
    _expect(problems, "grid points", points, want)
    _expect(problems, "summary line", lines[-1] if lines else "",
            f"{len(want)} points, 0 mismatched")
    return problems


def _coefficient_problems(n, k, coeffs, values) -> list[str]:
    problems = []
    gens = np.array([ref.gt_generator(n, k, i) for i in range(1, ref.gt_top_index(n, k) + 1)],
                    dtype=np.int64)
    if coeffs.shape[1] != len(gens):
        return [f"coefficient length {coeffs.shape[1]}, expected {len(gens)}"]
    if ((coeffs < 0) | (coeffs > 2)).any():
        problems.append("a coefficient outside {0,1,2}")
    twos = (coeffs == 2).sum(axis=1)
    if (twos > 1).any():
        problems.append("a sequence with more than one 2")
    has_two = twos == 1
    first_nonzero = np.argmax(coeffs != 0, axis=1)
    if (np.argmax(coeffs == 2, axis=1)[has_two] != first_nonzero[has_two]).any():
        problems.append("a 2 with a nonzero coefficient before it")
    if not np.array_equal(coeffs @ gens, values):
        problems.append("sum t_i*s_i differs from the listed value")
    return problems


def check_apery(checker, params, out) -> list[str]:
    n, k, fmt, with_coeffs = params["n"], params["k"], params["format"], params["coeffs"]
    s0 = ref.gt_generator(n, k, 0)
    m = ref.gt_top_index(n, k)
    problems = []
    coeffs = None
    if fmt == "json":
        data = json.loads(out)
        _expect(problems, "n, k, s0", (data["n"], data["k"], data["s0"]),
                (str(n), str(k), str(s0)))
        values = np.array(data["apery"]).astype(np.int64)
        _expect(problems, "coeffs present", "coeffs" in data, with_coeffs)
        if with_coeffs:
            coeffs = np.array(data["coeffs"]).astype(np.int64).reshape(len(values), -1)
    elif fmt == "csv":
        header, _, body = out.partition("\r\n")
        _expect(problems, "csv header", header, "residue,value,coeffs")
        cells = np.array(body.replace(",", " ").split()).astype(np.int64).reshape(-1, m + 2)
        residues, values, coeffs = cells[:, 0], cells[:, 1], cells[:, 2:]
        if not np.array_equal(residues, values % s0):
            problems.append("csv residue differs from value mod s0")
    else:
        cells = np.array(out.split()).astype(np.int64).reshape(-1, m + 1 if with_coeffs else 1)
        values = cells[:, 0]
        if with_coeffs:
            coeffs = cells[:, 1:]
    if coeffs is not None:
        problems += _coefficient_problems(n, k, coeffs, values)
    problems += _apery_set_problems(s0, values, ref.frobenius_reference(n, k))
    table = np.sort(np.array(checker.table(ref.gt_generators(n, k)), dtype=np.int64))
    if not np.array_equal(np.sort(values), table):
        problems.append("Apery set differs from the round-robin table")
    return problems


def _apery_set_problems(s0, values, frobenius) -> list[str]:
    problems = []
    _expect(problems, "number of Apery values", len(values), s0)
    if len(np.unique(values % s0)) != s0:
        problems.append("Apery values do not hit every residue class once")
    if 0 not in values:
        problems.append("0 missing from the Apery set")
    _expect(problems, "max Apery - s0", int(values.max()) - s0, frobenius)
    if (2 * sum(int(v) for v in values) - s0 * (s0 - 1)) % (2 * s0):
        problems.append("Selmer sum of the Apery set is not an integer")
    return problems


def _nk_record(fmt, out) -> dict:
    """The key/value record of an info or frobenius output, as strings."""
    if fmt == "json":
        data = json.loads(out)
        return {key: (" ".join(v) if isinstance(v, list) else v) for key, v in data.items()}
    if fmt == "csv":
        header, row = list(csv.reader(io.StringIO(out)))
        return dict(zip(header, row))
    record = {}
    for line in out.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            record[key] = value
    return record


def check_frobenius(checker, params, out) -> list[str]:
    n, k = params["n"], params["k"]
    record = _nk_record(params["format"], out)
    problems = []
    key = "F" if params["format"] == "text" else "frobenius"
    want = ref.frobenius_reference(n, k)
    _expect(problems, "frobenius", int(record[key]), want)
    if params["format"] != "text":
        _expect(problems, "n, k", (record["n"], record["k"]), (str(n), str(k)))
    return problems


def printed_genus(fmt, out, record=None) -> int | None:
    """The genus an info output prints, or None when it was skipped."""
    if record is None:
        if not out:
            return None
        record = _nk_record(fmt, out)
    genus = record.get("genus")
    if genus in ("", None) or genus.startswith("(skipped"):
        return None
    return int(genus)


def check_info(checker, params, out) -> list[str]:
    n, k, fmt = params["n"], params["k"], params["format"]
    record = _nk_record(fmt, out)
    problems = []
    gens = ref.gt_generators(n, k)
    s0, frob = gens[0], ref.frobenius_reference(n, k)
    _expect(problems, "generators", record["generators"], " ".join(map(str, gens)))
    _expect(problems, "delta", int(record["delta"]), ref.gt_top_index(n, k) - n)
    _expect(problems, "e", int(record["e"]), len(gens))
    _expect(problems, "case", record["case"], ref.gt_case(n, k))
    _expect(problems, "max_apery", int(record["max_apery"]), frob + s0)
    _expect(problems, "frobenius", int(record["F" if fmt == "text" else "frobenius"]), frob)
    g = printed_genus(fmt, out, record)
    if g is None:
        if s0 <= GENUS_S0_MAX:
            problems.append(f"genus skipped at s0 = {s0}")
        return problems
    if not (frob + 1) // 2 <= g <= frob:
        problems.append(f"genus {g} outside [(F+1)/2, F]")
    if s0 <= GENUS_S0_MAX:
        _expect(problems, "genus", g, ref.genus_from_table(s0, checker.table(gens)))
    return problems


def _oracle_values(fmt, out, key):
    """The payload of an ``oracle`` output: a list for apery, else a scalar."""
    if fmt == "json":
        return json.loads(out)[key]
    if fmt == "csv":
        header, row = out.rstrip("\n").split("\n")
        payload = row.split(",", header.count(","))[-1]
        if payload.startswith("["):
            return payload.strip("[]").split(", ")
        return payload
    if key == "apery":
        return out.split()
    return out.strip()


def check_oracle(checker, params, out) -> list[str]:
    what, gens, fmt = params["what"], params["gens"], params["format"]
    table = checker.table(gens)
    m = gens[0]
    problems = []
    if what == "apery":
        values = [int(v) for v in _oracle_values(fmt, out, "apery")]
        _expect(problems, "Apery set", values, sorted(table))
        if fmt != "text":
            modulus = json.loads(out)["modulus"] if fmt == "json" else out.split("\n")[1].split(",")[0]
            _expect(problems, "modulus", int(modulus), m)
    elif what == "frobenius":
        _expect(problems, "frobenius", int(_oracle_values(fmt, out, "frobenius")), max(table) - m)
    elif what == "genus":
        _expect(problems, "genus", int(_oracle_values(fmt, out, "genus")),
                ref.genus_from_table(m, table))
    else:
        x = params["x"]
        got = _oracle_values(fmt, out, "member")
        want = x >= table[x % m]
        if fmt == "text":
            _expect(problems, "membership", got, "member" if want else "not-member")
        else:
            _expect(problems, "membership", str(got), str(want))
    return problems


CHECKS = {
    "verify": check_verify,
    "apery": check_apery,
    "frobenius": check_frobenius,
    "info": check_info,
    "oracle": check_oracle,
}
