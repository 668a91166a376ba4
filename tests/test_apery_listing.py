"""`gtsg apery` against listings rendered from the spec-literal reference.

For one point of every case and every format, with and without
coefficients, the command must print exactly the bytes rendered from the
tuple reference of ``spec_reference``, sorted by value, with values from
``coeff_value``.  At the edges of the CLI's table decoder it must print
what ``apery_coeffs``'s tuples render to.
"""

import csv
import io
import json
import re

import pytest

from gtsg import cli, thabit
from gtsg.thabit import (
    Case,
    apery_coeffs,
    apery_set_closed,
    case_of,
    delta,
    generator_at,
)

from spec_reference import coeff_value, sorted_apery_rows

POINTS = {
    Case.N0: (0, 3),
    Case.K1: (3, 1),
    Case.KLT_N: (5, 3),
    Case.KEQ_N: (3, 3),
    Case.KGT_N: (2, 5),
    Case.EXCEPTION_1_2: (1, 2),
}


def render(n, k, fmt, with_coeffs, rows=None):
    """The expected stdout, rendered from (value, tuple) rows by value; the
    spec-literal reference's rows unless ``rows`` is given."""
    if rows is None:
        rows = sorted_apery_rows(n, k)
    s0 = generator_at(n, k, 0)
    if fmt == "json":
        data = {"n": str(n), "k": str(k), "s0": str(s0),
                "apery": [str(value) for value, _ in rows]}
        if with_coeffs:
            data["coeffs"] = [[str(c) for c in t] for _, t in rows]
        return json.dumps(data, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["residue", "value", "coeffs"])
        for value, t in rows:
            writer.writerow([value % s0, value, " ".join(map(str, t))])
        return buf.getvalue()
    if with_coeffs:
        return "".join(f"{value} {' '.join(map(str, t))}\n" for value, t in rows)
    return "".join(f"{value}\n" for value, _ in rows)


def test_points_cover_every_case():
    assert {case_of(n, k) for n, k in POINTS.values()} == set(Case)
    assert all(case_of(n, k) is case for case, (n, k) in POINTS.items())


@pytest.mark.parametrize("with_coeffs", [False, True])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("case", list(POINTS), ids=lambda c: c.name)
def test_listing_matches_reference(capsys, case, fmt, with_coeffs):
    n, k = POINTS[case]
    argv = ["apery", "--n", str(n), "--k", str(k), "--format", fmt]
    if with_coeffs:
        argv.append("--with-coeffs")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == render(n, k, fmt, with_coeffs)


# Edges of the half-table decoder: m = 1, whose low half is empty; the
# exception (1, 2); the 2 at j = h and at j = h + 1, the first position of
# each half (h = m // 2), for an even and an odd m; and GT(8, 8), m = 16.
DECODER_EDGES = [(0, 3), (0, 1), (1, 2), (2, 3), (2, 4), (8, 8)]


def test_decoder_edges_are_what_they_claim():
    m = {(n, k): n + delta(n, k) for n, k in DECODER_EDGES}
    assert (m[0, 3], m[0, 1], m[2, 3] % 2, m[2, 4] % 2, m[8, 8]) == (1, 1, 0, 1, 16)
    for n, k in [(2, 3), (2, 4)]:
        h = m[n, k] // 2
        _, coeffs = apery_coeffs(n, k)
        assert any(t[h - 1] == 2 for t in coeffs) and any(t[h] == 2 for t in coeffs)


@pytest.mark.parametrize("n,k", [(n, k) for n, k in DECODER_EDGES if (n, k) != (8, 8)])
def test_decoder_edges_match_reference(n, k):
    rows = sorted_apery_rows(n, k)
    assert apery_coeffs(n, k) == ([v for v, _ in rows], [t for _, t in rows])


@pytest.mark.parametrize("with_coeffs", [False, True])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("n,k", DECODER_EDGES)
def test_decoder_edges_print_the_tuples(capsys, n, k, fmt, with_coeffs):
    argv = ["apery", "--n", str(n), "--k", str(k), "--format", fmt]
    if with_coeffs:
        argv.append("--with-coeffs")
    assert cli.main(argv) == 0
    rows = list(zip(*apery_coeffs(n, k)))
    assert capsys.readouterr().out == render(n, k, fmt, with_coeffs, rows)


@pytest.mark.parametrize("n,k", [(0, 5), (1, 1), (6, 1), (1, 2), (2, 2), (6, 3),
                                 (7, 2), (4, 4), (1, 6), (3, 8), (5, 6), (8, 8)])
def test_coeffs_line_up_with_values(n, k):
    values = apery_set_closed(n, k)
    _, coeffs = apery_coeffs(n, k)
    assert [coeff_value(n, k, t) for t in coeffs] == values
    m = n + delta(n, k)
    for t in coeffs:
        assert len(t) == m and set(t) <= {0, 1, 2}, t
        if 2 in t:
            j = t.index(2)
            assert t.count(2) == 1 and not any(t[:j]), t
    if (n, k) != (1, 2):
        assert all(t[-1] <= 1 for t in coeffs)


@pytest.mark.parametrize("with_coeffs", [False, True])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("case", list(POINTS), ids=lambda c: c.name)
def test_one_enumeration_per_command(capsys, monkeypatch, case, fmt, with_coeffs):
    n, k = POINTS[case]
    calls = []
    runs = thabit._apery_runs

    def counted(n, k):
        calls.append((n, k))
        return runs(n, k)
    monkeypatch.setattr(thabit, "_apery_runs", counted)
    argv = ["apery", "--n", str(n), "--k", str(k), "--format", fmt]
    if with_coeffs:
        argv.append("--with-coeffs")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == render(n, k, fmt, with_coeffs)
    assert calls == [(n, k)]


def test_a_repeated_value_fails_the_self_check(capsys, monkeypatch):
    # two masks worth the same: the set keeps s_0 values, but not distinct
    subset_sums = thabit._subset_sums

    def repeated(vals):
        sums = subset_sums(vals)
        sums[1] = sums[0]
        return sums
    monkeypatch.setattr(thabit, "_subset_sums", repeated)
    message = "closed Apery set for (3,2) has 37 values, expected 37"
    with pytest.raises(AssertionError, match=re.escape(message)):
        apery_set_closed(3, 2)
    assert cli.main(["apery", "--n", "3", "--k", "2", "--with-coeffs"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"gtsg: error: AssertionError: {message}\n")
