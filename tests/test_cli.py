"""End-to-end tests for the gtsg command line, driven through main()."""

import concurrent.futures
import contextlib
import csv
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec_reference
from gtsg import cli, thabit, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_text_contains_frobenius(self, capsys):
        code, out, _ = run(capsys, "info", "--n", "5", "--k", "3")
        assert code == 0
        assert "F = 81483" in out
        assert "max_apery = 81764" in out

    def test_text_exception_pair(self, capsys):
        code, out, _ = run(capsys, "info", "--n", "1", "--k", "2")
        assert code == 0
        assert "F = 67" in out

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "info", "--n", "0", "--k", "3",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["generators"] == ["2", "11"]
        assert data["e"] == "2"
        assert data["frobenius"] == "9"

    def test_json_round_trip_is_byte_identical(self, capsys):
        _, out, _ = run(capsys, "info", "--n", "5", "--k", "3",
                        "--format", "json")
        line = out.strip()
        assert json.dumps(json.loads(line), sort_keys=True) == line

    def test_json_ints_are_strings(self, capsys):
        _, out, _ = run(capsys, "info", "--n", "7", "--k", "3",
                        "--format", "json")
        data = json.loads(out)
        assert data["frobenius"] == "1325903"
        assert all(isinstance(g, str) for g in data["generators"])

    def test_genus_skipped_over_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("GTSG_S0_CAP", "100")
        code, out, _ = run(capsys, "info", "--n", "5", "--k", "3")
        assert code == 0
        assert "genus = (skipped" in out
        assert "F = 81483" in out  # the closed form itself has no cap

    def test_genus_forced_over_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("GTSG_S0_CAP", "100")
        code, out, _ = run(capsys, "info", "--n", "5", "--k", "3")
        assert "genus = (skipped" in out
        monkeypatch.setenv("GTSG_S0_CAP", "281")     # s0 of GT(5, 3)
        code, out, _ = run(capsys, "info", "--n", "5", "--k", "3")
        assert code == 0
        assert out == EXACT_STDOUT[("info", "--n", "5", "--k", "3")]["text"]


class TestApery:
    def test_exception_pair_listing(self, capsys):
        code, out, _ = run(capsys, "apery", "--n", "1", "--k", "2")
        assert code == 0
        assert out.split() == ["0", "17", "34", "37", "54", "71", "74"]

    def test_line_count_is_s0(self, capsys):
        code, out, _ = run(capsys, "apery", "--n", "2", "--k", "2")
        assert code == 0
        assert len(out.splitlines()) == 17

    def test_n0(self, capsys):
        code, out, _ = run(capsys, "apery", "--n", "0", "--k", "5")
        assert code == 0
        assert out.split() == ["0", str(thabit.generator_at(0, 5, 1))]

    def test_with_coeffs(self, capsys):
        code, out, _ = run(capsys, "apery", "--n", "1", "--k", "2",
                           "--with-coeffs")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["0", "0", "0"]
        assert lines[-1].split() == ["74", "0", "2"]

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "apery", "--n", "2", "--k", "3",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["residue", "value", "coeffs"]
        assert len(rows) == 1 + 29
        values = [int(r[1]) for r in rows[1:]]
        assert values == sorted(values)
        for residue, value, coeffs in rows[1:]:
            assert int(value) % 29 == int(residue)
            t = tuple(int(c) for c in coeffs.split())
            assert spec_reference.coeff_value(2, 3, t) == int(value)

    def test_too_large_without_force(self, capsys, monkeypatch):
        monkeypatch.setenv("GTSG_S0_CAP", "100")
        code, out, err = run(capsys, "apery", "--n", "5", "--k", "3")
        assert code == 2
        assert "exceeds" in err

    def test_force_overrides_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("GTSG_S0_CAP", "10")
        code, out, err = run(capsys, "apery", "--n", "2", "--k", "2")
        assert (code, out) == (2, "")
        assert err == ("gtsg: error: s0 = 17 exceeds the enumeration cap 10; "
                       "raise GTSG_S0_CAP to lift it\n")
        monkeypatch.setenv("GTSG_S0_CAP", "17")
        code, out, _ = run(capsys, "apery", "--n", "2", "--k", "2")
        assert code == 0
        assert len(out.splitlines()) == 17


class TestFrobenius:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "frobenius", "--n", "7", "--k", "3")
        assert code == 0
        assert out.strip() == "F = 1325903"

    def test_no_cap(self, capsys, monkeypatch):
        # the closed form never enumerates, so the cap does not apply
        monkeypatch.setenv("GTSG_S0_CAP", "10")
        code, out, _ = run(capsys, "frobenius", "--n", "20", "--k", "4")
        assert code == 0
        assert out.strip() == f"F = {thabit.frobenius_closed(20, 4)}"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "frobenius", "--n", "5", "--k", "3",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["frobenius"] == "81483"


@contextlib.contextmanager
def whole_ints():
    """Lift Python's int/str digit limit while the test parses."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestHugeIntegers:
    """Results past Python's 4300-digit int/str limit print in full."""

    def test_k_greater_than_n(self, capsys):
        n, k = 3, 10_000
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "frobenius", "--n", str(n), "--k", str(k))
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit    # restored after main
        expected = spec_reference.max_apery_term_by_term(n, k) - thabit.generator_at(n, k, 0)
        with whole_ints():
            assert len(str(expected)) > 4300
            assert int(out.strip().removeprefix("F = ")) == expected

    def test_k_equal_n(self, capsys):
        n = 8_000
        code, out, err = run(capsys, "frobenius", "--n", str(n), "--k", str(n),
                             "--format", "json")
        assert (code, err) == (0, "")
        s = lambda i: thabit.generator_at(n, n, i)
        with whole_ints():
            value = int(json.loads(out)["frobenius"])
            assert len(str(value)) > 4300
        assert value == s(1) + s(2 * n) - s(0)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_info_generators_match_int_rendering(self, capsys, monkeypatch, fmt):
        # s_1 = 2^15000 + 3 has 4516 digits; the int rendering is str() of
        # minimal_generating_set, run with the digit limit lifted
        argv = ("info", "--n", "0", "--k", "15000", "--format", fmt)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        monkeypatch.setattr(thabit, "generator_decimals", lambda n, k: [
            str(g) for g in thabit.minimal_generating_set(n, k).gens])
        with whole_ints():
            assert len(str(thabit.generator_at(0, 15000, 1))) > 4300
            assert run(capsys, *argv) == (0, out, "")


class TestOracle:
    def test_apery(self, capsys):
        code, out, _ = run(capsys, "oracle", "apery", "--gens", "7,11,13")
        assert code == 0
        assert out.split() == ["0", "11", "13", "22", "24", "26", "37"]

    def test_frobenius_naturals(self, capsys):
        code, out, _ = run(capsys, "oracle", "frobenius", "--gens", "1")
        assert code == 0
        assert out.strip() == "-1"

    def test_frobenius_gt_1_2_generators(self, capsys):
        code, out, _ = run(capsys, "oracle", "frobenius", "--gens", "7,17,37")
        assert code == 0
        assert out.strip() == "67"

    def test_genus(self, capsys):
        code, out, _ = run(capsys, "oracle", "genus", "--gens", "7,11,13")
        assert code == 0
        assert out.strip() == "16"

    def test_membership(self, capsys):
        code, out, _ = run(capsys, "oracle", "membership",
                           "--gens", "7,11,13", "--x", "30")
        assert code == 0
        assert out.strip() == "not-member"

    def test_gcd_not_one_exits_2(self, capsys):
        code, _, err = run(capsys, "oracle", "frobenius", "--gens", "4,6")
        assert code == 2
        assert "gcd" in err.lower()

    def test_membership_without_x_exits_2(self, capsys):
        code, _, err = run(capsys, "oracle", "membership", "--gens", "7,11")
        assert code == 2
        assert err

    @pytest.mark.parametrize("what", ["frobenius", "genus"])
    def test_x_applies_only_to_apery_and_membership(self, capsys, what):
        code, out, err = run(capsys, "oracle", what, "--gens", "7,11,13", "--x", "30")
        assert (code, out) == (2, "")
        assert err == "gtsg: error: --x applies only to apery and membership\n"

    @pytest.mark.parametrize("spelling", [("--gens", "-3,5"), ("--gens=-3,5",)])
    def test_negative_generator_exits_2(self, capsys, spelling):
        # argparse would read "-3,5" after --gens as an option
        code, out, err = run(capsys, "oracle", "frobenius", *spelling)
        assert (code, out, err) == (2, "", "gtsg: error: generators must be >= 1\n")


class TestOracleCap:
    def test_apery_modulus_over_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("GTSG_S0_CAP", "100")
        code, out, err = run(capsys, "oracle", "apery", "--gens", "7,11",
                             "--x", "1000000000000")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "exceeds" in err

    def test_smallest_generator_over_cap_needs_force(self, capsys, monkeypatch):
        monkeypatch.setenv("GTSG_S0_CAP", "100")
        code, out, err = run(capsys, "oracle", "--gens", "300,301", "frobenius")
        assert code == 2
        assert len(err.splitlines()) == 1 and "exceeds" in err
        assert err == ("gtsg: error: modulus = 300 exceeds the enumeration cap 100; "
                       "raise GTSG_S0_CAP to lift it\n")
        monkeypatch.setenv("GTSG_S0_CAP", "300")
        code, out, _ = run(capsys, "oracle", "--gens", "300,301", "frobenius")
        assert code == 0
        assert out == "89699\n"  # 300*301 - 300 - 301

    def test_apery_within_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("GTSG_S0_CAP", "13")
        code, out, _ = run(capsys, "oracle", "apery", "--gens", "7,11,13",
                           "--x", "13")
        assert code == 0
        assert len(out.split()) == 13


class TestCapVariable:
    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_cap_names_the_variable(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GTSG_S0_CAP", value)
        code, out, err = run(capsys, "apery", "--n", "1", "--k", "1")
        assert (code, out) == (2, "")
        assert err == ("gtsg: error: GTSG_S0_CAP must be a non-negative integer, "
                       f"got '{value}'\n")


class TestVerify:
    def test_small_grid_all_match(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "1", "--k-max", "2",
                           "--s0-max", "1000")
        assert code == 0
        assert "0 mismatched" in out
        assert "GT(1,2)" in out  # the exception path is on the grid

    def test_n0_row(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "0", "--k-max", "8",
                           "--s0-max", "2000")
        assert code == 0
        assert "MISMATCH" not in out

    def test_json_totals(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "2", "--k-max", "2",
                           "--s0-max", "1000", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["mismatched"] == "0"
        assert all(p["status"] == "match" for p in data["points"])

    def test_jobs_independent(self, capsys):
        _, seq, _ = run(capsys, "verify", "--n-max", "1", "--k-max", "3",
                        "--s0-max", "2000")
        _, par, _ = run(capsys, "verify", "--n-max", "1", "--k-max", "3",
                        "--s0-max", "2000", "--jobs", "2")
        assert seq == par

    @pytest.mark.parametrize("jobs,cpus,workers", [
        (100000, 64, 35),   # one worker a point: the s0 <= 300 grid has 35
        (100000, 3, 3),     # one a CPU
        (100000, None, None),   # CPU count unknown: no pool
        (1, 64, None),
    ])
    def test_pool_workers_are_capped(self, capsys, monkeypatch, jobs, cpus, workers):
        made = []

        class SerialPool:
            """Records max_workers and maps in this process."""
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)
        # verify imports the pool class inside verify_grid, from this module
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        assert len(verify.grid_points(None, None, 300)) == 35
        _, serial, _ = run(capsys, "verify", "--s0-max", "300")
        code, out, _ = run(capsys, "verify", "--s0-max", "300", "--jobs", str(jobs))
        assert (code, out) == (0, serial)
        assert made == ([] if workers is None else [workers])

    @staticmethod
    def short_at_1_1(monkeypatch):
        # one Apery value short at (1,1): apery_set_closed fails its size
        # check and genus_closed its exact division, both AssertionError
        runs = thabit._apery_runs

        def short(n, k):
            (j, count), *rest = runs(n, k)
            return [(j, count - 1), *rest] if (n, k) == (1, 1) else [(j, count), *rest]
        monkeypatch.setattr(thabit, "_apery_runs", short)

    def test_failed_self_check_is_a_mismatch(self, capsys, monkeypatch):
        self.short_at_1_1(monkeypatch)
        code, out, err = run(capsys, "verify", "--n-max", "1", "--k-max", "2",
                             "--s0-max", "1000", "--jobs", "1")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        points = verify.grid_points(1, 2, 1000)
        assert [line.split(" s0=")[0] for line in lines[:-1]] == \
            [f"GT({n},{k})" for n, k in points]
        bad = [line for line in lines if "MISMATCH" in line]
        assert bad == [lines[points.index((1, 1))]]
        assert "apery_set: closed=closed Apery set for (1,1) has 4 values, expected 5" in bad[0]
        assert "genus: closed=genus division inexact" in bad[0]
        assert lines[-1] == f"{len(points)} points, 1 mismatched"

    def test_failed_self_check_csv_is_quoted(self, capsys, monkeypatch):
        # the mismatch detail holds commas, so its cell must be quoted
        self.short_at_1_1(monkeypatch)
        code, out, err = run(capsys, "verify", "--n-max", "1", "--k-max", "2",
                             "--s0-max", "1000", "--jobs", "1", "--format", "csv")
        assert (code, err) == (1, "")
        report = verify.verify_grid(1, 2, 1000)
        rows = [("n", "k", "s0", "status", "detail")] + [
            (p.n, p.k, p.s0, "match" if p.ok else "mismatch",
             "; ".join(f"{m.field}: closed={m.closed_value} oracle={m.oracle_value}"
                       for m in p.mismatches))
            for p in report.points]
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        assert out == buf.getvalue()
        assert '"apery_set: closed=closed Apery set for (1,1) has 4 values, expected 5' in out
        parsed = list(csv.reader(io.StringIO(out, newline="")))
        assert [len(row) for row in parsed] == [5] * (1 + len(report.points))

    def test_self_check_survives_python_O(self):
        # python -O strips assert statements; the closed forms' self-checks
        # raise AssertionError themselves, so a failed one is still a mismatch
        script = (
            "from gtsg import thabit, verify\n"
            "assert False, 'not running under -O'\n"
            "thabit._skew_runs = lambda target, length: None\n"
            "for m in verify.verify_point(1, 1).mismatches:\n"
            "    print(m.field, m.closed_value, sep=': ')\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "frobenius: no prefix of length 0 solves P = 0\n"


class TestUsageErrors:
    def test_bad_k(self, capsys):
        code, _, err = run(capsys, "info", "--n", "1", "--k", "0")
        assert code == 2
        assert "k must be" in err

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "frobenius", "--n", "-1", "--k", "2")
        assert code == 2
        assert "n must be" in err

    @pytest.mark.parametrize("argv,err_line", [
        (["apery", "--n", "2", "--k", "0"], "gtsg: error: k must be >= 1, got 0\n"),
        (["apery", "--n", "-3", "--k", "1"], "gtsg: error: n must be >= 0, got -3\n"),
        (["info", "--n", "1", "--k", "0"], "gtsg: error: k must be >= 1, got 0\n"),
        (["frobenius", "--n", "-1", "--k", "2"], "gtsg: error: n must be >= 0, got -1\n"),
    ], ids=["apery-k", "apery-n", "info-k", "frobenius-n"])
    def test_bad_n_k_prints_nothing_on_stdout(self, capsys, argv, err_line):
        # thabit checks n and k before any work, so nothing reaches stdout
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", err_line)

    @pytest.mark.parametrize("argv", [
        ["info", "--n", "5", "--k", "3"],
        ["apery", "--n", "5", "--k", "3"],
        ["frobenius", "--n", "5", "--k", "3"],
        ["oracle", "frobenius", "--gens", "7,11"],
        ["verify", "--s0-max", "30"],
    ], ids=lambda argv: argv[0])
    def test_frobenius_has_no_force(self, capsys, argv):
        # GTSG_S0_CAP is the one way to lift the enumeration cap
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--force"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --force" in captured.err


def writes(fmt, built):
    """The strings the one sink hands to stdout for ``built``, the value
    that a ``fmt`` builder returns, one a write."""
    chunks = []

    class Out(io.TextIOBase):
        def write(self, text):
            chunks.append(text)
            return len(text)

    with contextlib.redirect_stdout(Out()):
        cli._write(fmt, **{fmt: lambda: built})
    return chunks


def sink(fmt, built):
    return "".join(writes(fmt, built))


def csv_text(rows):
    return sink("csv", rows)


def json_text(obj):
    return sink("json", obj)


def _cell_values():
    text = st.text(alphabet=[",", '"', "\r", "\n", " ", "\t", "\u00e9", "a", "0"],
                   max_size=6)
    return st.none() | st.integers() | st.booleans() | text


class TestCsvText:
    """The sink writes rows as csv.writer's default dialect does; a list
    cell is its items joined by spaces, quoted as any cell."""

    @staticmethod
    def reference(rows):
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        return buf.getvalue()

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.lists(_cell_values(), max_size=4),
                              st.just([]), st.just([""]), st.just([None])),
                    max_size=5))
    def test_matches_csv_writer(self, rows):
        assert csv_text(rows) == self.reference(rows)

    def test_big_integers_and_generators(self):
        rows = [("big", "gens"), (7 ** 6000, " ".join(map(str, range(2000))))]
        with whole_ints():
            assert csv_text(rows) == self.reference(rows)
            assert csv_text(iter(rows)) == self.reference(rows)

    @classmethod
    def joined(cls, rows):
        # csv.writer on the same rows with each list cell joined by spaces
        return cls.reference([[" ".join(cell) if isinstance(cell, list) else cell
                               for cell in row] for row in rows])

    @pytest.mark.parametrize("rows", [
        [[[]]],
        [["a", [], "b"], [[], []]],
        [[[""]]],
        [[["", ""]]],
        [[["x,y", "z"]], [["say \"hi\"", "z"]]],
        [[["a\rb"], "c"], [["a\nb", "c"]], [["a b", "c"]], [[" "]]],
        [["n", ["1", "22", "333"], 4], ["x", ["1"], None]],
        [["gens", "e"], [[str(7 ** i) for i in range(2000)], 2000]],
    ], ids=["empty", "empty-among-cells", "one-empty-item", "empty-items",
            "comma-quote", "cr-lf-space", "plain", "big"])
    def test_list_cells_match_joined_cells(self, rows):
        assert csv_text(rows) == self.joined(rows)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(_cell_values() | st.lists(st.text(
        alphabet=[",", '"', "\r", "\n", " ", "a", "0"], max_size=3), max_size=4),
        max_size=4), max_size=4))
    def test_list_cells_match_csv_writer(self, rows):
        assert csv_text(rows) == self.joined(rows)


class TestCsvWholeTable:
    """Tables of str cells, with one cell that needs quoting or one empty
    row anywhere, come out as csv.writer writes them."""

    ROWS = 1000

    @classmethod
    def table(cls):
        return [("residue", "value", "coeffs")] + [
            (str(i % 97), str(7 * i), " ".join("012"[j % 3] for j in range(i % 5 + 1)))
            for i in range(cls.ROWS - 1)]

    def test_plain_table(self):
        rows = self.table()
        assert csv_text(rows) == TestCsvText.reference(rows)

    @pytest.mark.parametrize("at", [0, 1, 500, ROWS - 1])
    @pytest.mark.parametrize("cell", ["a,b", ",", 'say "hi"', '"', "a\rb", "\r", "a\nb",
                                      "\n", "\r\n"])
    def test_one_cell_needs_quoting(self, at, cell):
        rows = self.table()
        rows[at] = (rows[at][0], cell, rows[at][2])
        assert csv_text(rows) == TestCsvText.reference(rows)

    @pytest.mark.parametrize("at", [0, 1, 500, ROWS - 1])
    @pytest.mark.parametrize("row", [("",), ()], ids=["one-empty-cell", "empty-row"])
    def test_one_empty_row(self, at, row):
        rows = self.table()
        rows[at] = row
        assert csv_text(rows) == TestCsvText.reference(rows)

    @pytest.mark.parametrize("rows", [
        [],
        [()],
        [("",)],
        [("",), ("",)],
        [("a",), ("b", "c"), ("d", "e", "f"), ("g", "")],
        [("a", "", ""), ("", "b"), ("", "")],
        [("x",)] * 3 + [("a", "b,c")],
    ], ids=["no-rows", "empty-row", "one-empty-cell", "two-empty-cells", "unequal",
            "empty-cells", "comma-last"])
    def test_small_tables(self, rows):
        assert csv_text(rows) == TestCsvText.reference(rows)

    def test_generator_input(self):
        rows = self.table()
        assert csv_text(row for row in rows) == TestCsvText.reference(rows)
        assert csv_text(iter(row) for row in rows) == TestCsvText.reference(rows)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.text(alphabet=[",", '"', "\r", "\n", " ", "a", "0"],
                                     max_size=3), max_size=4), max_size=6))
    def test_str_tables_match_csv_writer(self, rows):
        assert csv_text(rows) == TestCsvText.reference(rows)


def _json_leaves():
    text = st.text(alphabet=['"', "\\", "\x00", "\x1f", "\n", "\x7f", "\u00e9",
                             "\u2028", "\U0001f600", "\u00b2", "\u0663", "-", " ",
                             "a", "0", "9"], max_size=5)
    digits = st.from_regex(r"[0-9]{1,6}", fullmatch=True)
    return (st.integers() | st.booleans() | st.none() | text | digits
            | st.sampled_from(["", "-1", "\u00b2", "\u0663", "0", "007"]))


def _json_records():
    leaves = _json_leaves()
    digit_lists = st.lists(st.from_regex(r"[0-9]{1,6}", fullmatch=True), max_size=6)
    int_lists = st.lists(st.integers(), max_size=6)
    return st.recursive(
        leaves | digit_lists | int_lists,
        lambda children: (st.lists(children, max_size=4)
                          | st.tuples(children, children)
                          | st.dictionaries(st.text(alphabet=['"', "\\", "\n", "\u00e9",
                                                              "a", "b", "1"], max_size=3),
                                            children, max_size=4)),
        max_leaves=16)


class TestJsonText:
    """The sink writes what the json module writes for the _jsonify form,
    sorted keys, and "\n"."""

    @staticmethod
    def reference(obj):
        return json.dumps(spec_reference._jsonify(obj), sort_keys=True) + "\n"

    @settings(max_examples=500, deadline=None)
    @given(_json_records())
    def test_matches_json_dumps(self, obj):
        assert json_text(obj) == self.reference(obj)

    @pytest.mark.parametrize("obj", [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, "", "-1", "\u00b2", "\u0663",
        ["1", "\u00b2", "2"], ["1", "\u0663"], ["1", ""], ["1", "-1"], ["1", 2],
        [1, "2"], [1, True], [True, False, None], [1, -1, 0], ["0", None],
        ["1", ["2"]], ("1", "2"), {"k": ("1", 2)}, {"\u00e9\"\\": '"\x7f\x00'},
    ], ids=repr)
    def test_edge_values(self, obj):
        assert json_text(obj) == self.reference(obj)

    @pytest.mark.parametrize("tail", ["\u00b2", "\u0663", '"', "\\", "\x00", "\x7f", "\ud800",
                                      "-1", "", "12", -1, 12, True, None])
    @pytest.mark.parametrize("head", [255, 256, 600])
    def test_one_item_past_a_chunk_of_digits(self, head, tail):
        for obj in ([str(i) for i in range(head)] + [tail], list(range(head)) + [tail]):
            assert json_text(obj) == self.reference(obj)

    def test_big_integers(self):
        big = 7 ** 6000
        with whole_ints():
            obj = {"big": big, "neg": -big, "list": [big, 1, 2], "mixed": [big, "x"],
                   "digits": [str(big), "3"]}
            assert json_text(obj) == self.reference(obj)

    @pytest.mark.parametrize("seqs", [
        [], [()], [(0,)], [(0, 1), (2, 0)], [(), (1,)], [(2, 1, 0, 1)] * 3,
    ], ids=repr)
    def test_arrays_of_rendered_items(self, seqs):
        obj = {"coeffs": cli._Batched([list(map(cli._json_items, seqs))], arrays=True)}
        assert json_text(obj) == self.reference({"coeffs": seqs})

    @pytest.mark.parametrize("obj", [{1: "a"}, {"a": 1.5}, [object()]],
                             ids=["int-key", "float", "object"])
    def test_refuses_what_it_cannot_write(self, obj):
        with pytest.raises(TypeError):
            json_text(obj)


class TestProcessFootprint:
    """Costs that only show in a fresh process."""

    def test_import_loads_no_pool_or_csv(self):
        # decimal too: generator_decimals imports it when it runs
        script = ("import sys, gtsg.cli\n"
                  "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', 'csv',\n"
                  "                         'decimal')\n"
                  "             if m in sys.modules))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")

    @staticmethod
    def peak_rss_kb(*argv):
        # VmHWM, the peak of the child's own address space: Linux carries
        # the peak of the process that forked it into the child's ru_maxrss
        # across exec, so the child's RUSAGE_SELF reads at least this test
        # process's peak, and RUSAGE_CHILDREN the largest of every child
        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs /proc/self/status")
        script = ("import sys\n"
                  "from gtsg import cli\n"
                  f"code = cli.main({list(argv)!r})\n"
                  "sys.stdout.flush()\n"
                  "with open('/proc/self/status') as status:\n"
                  "    peak = next(line.split()[1] for line in status\n"
                  "                if line.startswith('VmHWM:'))\n"
                  "print(code, peak, file=sys.stderr)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        env.pop("GTSG_S0_CAP", None)    # the default cap skips info's genus
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        code, peak = done.stderr.split()
        assert (done.returncode, code) == (0, "0")
        return int(peak)

    def test_info_csv_peaks_no_higher_than_text(self):
        # 16.3 MB of stdout, nearly all of it the one generators cell
        argv = ("info", "--n", "6000", "--k", "2", "--format")
        text = self.peak_rss_kb(*argv, "text")
        table = self.peak_rss_kb(*argv, "csv")
        assert table <= 1.10 * text, (table, text)

    def test_info_json_peaks_no_higher_than_text(self):
        # the same 16.3 MB of generators, as one JSON array of strings
        argv = ("info", "--n", "6000", "--k", "2", "--format")
        text = self.peak_rss_kb(*argv, "text")
        record = self.peak_rss_kb(*argv, "json")
        assert record <= 1.10 * text, (record, text)

    def test_info_text_peak_stays_under_two_and_a_half_outputs(self, capsys, monkeypatch):
        # the generator strings and the text built from them coexist, but
        # writing the text must not encode it whole into a third copy
        argv = ("info", "--n", "6000", "--k", "2", "--format", "text")
        monkeypatch.delenv("GTSG_S0_CAP", raising=False)
        assert cli.main(list(argv)) == 0
        written = len(capsys.readouterr().out.encode())
        base = self.peak_rss_kb("frobenius", "--n", "5", "--k", "3")
        peak = self.peak_rss_kb(*argv)
        assert (peak - base) * 1024 < 2.5 * written, (peak, base, written)

    def test_apery_csv_peaks_no_higher_than_text(self):
        # the csv lines go out a batch at a time, as the text lines do
        argv = ("apery", "--n", "13", "--k", "1", "--with-coeffs", "--format")
        text = self.peak_rss_kb(*argv, "text")
        table = self.peak_rss_kb(*argv, "csv")
        assert table <= 1.10 * text, (table, text)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_info_peak_does_not_grow_with_its_output(self, fmt):
        # 181 MB of generators, written as they are made: the peak stays
        # within a few MB of a command that writes 10 bytes
        base = self.peak_rss_kb("frobenius", "--n", "5", "--k", "3")
        peak = self.peak_rss_kb("info", "--n", "20000", "--k", "1", "--format", fmt)
        assert peak - base < 6 * 1024, (peak, base)

    def test_apery_json_peak_stays_under_two_outputs(self, capsys, monkeypatch):
        # 6.3 MB of values and coefficient sequences: the listing (values
        # and codes) stays whole, the rendered text goes a batch at a time
        argv = ("apery", "--n", "8", "--k", "8", "--format", "json", "--with-coeffs")
        monkeypatch.delenv("GTSG_S0_CAP", raising=False)
        assert cli.main(list(argv)) == 0
        written = len(capsys.readouterr().out.encode())
        base = self.peak_rss_kb("frobenius", "--n", "5", "--k", "3")
        peak = self.peak_rss_kb(*argv)
        assert (peak - base) * 1024 < 2 * written, (peak, base, written)


class TestEarlyClosedStdout:
    def test_a_reader_gone_after_100_bytes_is_one_error_line(self):
        # the command meets the closed pipe in the middle of its output
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        env.pop("GTSG_S0_CAP", None)
        argv = ["apery", "--n", "8", "--k", "8", "--format", "json", "--with-coeffs"]
        child = subprocess.Popen([sys.executable, "-c", "from gtsg.cli import entry; entry()",
                                  *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert len(child.stdout.read(100)) == 100
        finally:
            child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("gtsg: error: BrokenPipeError: "), err


class TestSinkBoundaries:
    """Lists and cells whose items straddle a write of about 1 MiB."""

    @staticmethod
    def dumps(obj):
        return json.dumps(spec_reference._jsonify(obj), sort_keys=True) + "\n"

    @pytest.mark.parametrize("tail", ["x", "\u00e9", "-1", "", -1, None])
    def test_one_item_to_escape_after_the_first_write(self, tail):
        # about 2.9 MB of digit strings, then the one item that is not
        items = [str(i) for i in range(300_000)] + [tail]
        obj = {"a": items, "b": 1}
        chunks = writes("json", obj)
        assert len(chunks) > 1 and '"300000' not in chunks[0]
        assert "".join(chunks) == self.dumps(obj)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_streamed_items_straddle_a_write(self, fmt):
        # about 2 MB of decimal strings in batches of 7, as info writes its
        # generators
        items = [str(7 ** i) for i in range(1, 2200)]
        streamed = cli._Batched(cli._batches(items, 7))
        if fmt == "json":
            chunks = writes(fmt, {"generators": streamed, "n": 1})
            expected = self.dumps({"generators": items, "n": 1})
        else:
            chunks = writes(fmt, [("n", "generators", "e"), (1, streamed, 2)])
            expected = TestCsvText.reference([("n", "generators", "e"), (1, " ".join(items), 2)])
        assert len(chunks) > 1
        assert "".join(chunks) == expected

    @pytest.mark.parametrize("empty", [[], cli._Batched([]), cli._Batched([[], []]),
                                       cli._Batched([[]], arrays=True)],
                             ids=["list", "no-batches", "empty-batches", "arrays"])
    def test_empty_lists(self, empty):
        assert json_text({"a": empty, "b": [empty]}) == '{"a": [], "b": [[]]}\n'
        assert csv_text([("a", empty, "b")]) == "a,,b\r\n"
        assert csv_text([(empty,)]) == '""\r\n'

    def test_a_streamed_cell_that_needs_quoting_is_refused(self):
        with pytest.raises(ValueError):
            csv_text([("a", cli._Batched([["1"], ["2,3"]]))])


class TestParserBuiltOnce:
    def test_main_does_not_rebuild_the_parser(self, capsys, monkeypatch):
        def boom():
            raise AssertionError("build_parser called after import")
        monkeypatch.setattr(cli, "build_parser", boom)
        code, out, err = run(capsys, "frobenius", "--n", "5", "--k", "3")
        assert (code, out, err) == (0, "F = 81483\n", "")


class TestUnexpectedErrors:
    """Any other exception is one stderr line and exit 2, never exit 1."""

    @pytest.mark.parametrize("exc", [RecursionError, MemoryError])
    @pytest.mark.parametrize("name,argv", [
        ("max_apery", ["frobenius", "--n", "5", "--k", "3"]),
        ("genus_closed", ["info", "--n", "5", "--k", "3", "--format", "json"]),
    ])
    def test_exits_2_with_one_line(self, capsys, monkeypatch, exc, name, argv):
        def boom(n, k):
            raise exc("injected")
        monkeypatch.setattr(thabit, name, boom)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"gtsg: error: {exc.__name__}: injected\n"


class TestVerifyUsageErrors:
    def test_empty_grid_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--s0-max", "0")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "no points" in err

    def test_s0_max_past_the_cap_exits_2_before_any_work(self, capsys, monkeypatch):
        def boom(**kwargs):
            raise AssertionError("verify_grid called past the cap")
        monkeypatch.setattr(verify, "verify_grid", boom)
        monkeypatch.setenv("GTSG_S0_CAP", "100")
        code, out, err = run(capsys, "verify", "--s0-max", "1000")
        assert (code, out) == (2, "")
        assert err == ("gtsg: error: s0-max = 1000 exceeds the enumeration cap 100; "
                       "raise GTSG_S0_CAP to lift it\n")

    def test_s0_max_at_the_cap_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("GTSG_S0_CAP", "1000")
        code, out, err = run(capsys, "verify", "--s0-max", "1000")
        assert (code, err) == (0, "")
        assert out.endswith(" points, 0 mismatched\n")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "--s0-max", "300", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "jobs" in err


# The literal stdout of the record commands in every format.  CSV lines end
# in "\r\n" (Python's csv dialect), except for oracle, whose csv keeps its
# older hand-joined form.
EXACT_STDOUT = {
    ('info', '--n', '5', '--k', '3'): {
        'text': ('GT(5,3)\n'
                 'generators = 281 569 1145 2297 4601 9209 18425 36857 73721\n'
                 'delta = 3\n'
                 'e = 9\n'
                 'case = KLT_N\n'
                 'max_apery = 81764\n'
                 'F = 81483\n'
                 'genus = 41290\n'),
        'json': ('{"case": "KLT_N", "delta": "3", "e": "9", "frobenius": '
                 '"81483", "generators": ["281", "569", "1145", "2297", '
                 '"4601", "9209", "18425", "36857", "73721"], "genus": '
                 '"41290", "k": "3", "max_apery": "81764", "n": "5"}\n'),
        'csv': ('n,k,generators,delta,e,case,max_apery,frobenius,genus\r\n'
                '5,3,281 569 1145 2297 4601 9209 18425 36857 '
                '73721,3,9,KLT_N,81764,81483,41290\r\n'),
    },
    ('info', '--n', '1', '--k', '2'): {
        'text': ('GT(1,2)\n'
                 'generators = 7 17 37\n'
                 'delta = 1\n'
                 'e = 3\n'
                 'case = EXCEPTION_1_2\n'
                 'max_apery = 74\n'
                 'F = 67\n'
                 'genus = 38\n'),
        'json': ('{"case": "EXCEPTION_1_2", "delta": "1", "e": "3", '
                 '"frobenius": "67", "generators": ["7", "17", "37"], '
                 '"genus": "38", "k": "2", "max_apery": "74", "n": "1"}\n'),
        'csv': ('n,k,generators,delta,e,case,max_apery,frobenius,genus\r\n'
                '1,2,7 17 37,1,3,EXCEPTION_1_2,74,67,38\r\n'),
    },
    ('info', '--n', '30', '--k', '3'): {
        'text': ('GT(30,3)\n'
                 'generators = 9663676409 19327352825 38654705657 77309411321 '
                 '154618822649 309237645305 618475290617 1236950581241 '
                 '2473901162489 4947802324985 9895604649977 19791209299961 '
                 '39582418599929 79164837199865 158329674399737 '
                 '316659348799481 633318697598969 1266637395197945 '
                 '2533274790395897 5066549580791801 10133099161583609 '
                 '20266198323167225 40532396646334457 81064793292668921 '
                 '162129586585337849 324259173170675705 648518346341351417 '
                 '1297036692682702841 2594073385365405689 5188146770730811385 '
                 '10376293541461622777 20752587082923245561 '
                 '41505174165846491129 83010348331692982265\n'
                 'delta = 3\n'
                 'e = 34\n'
                 'case = KLT_N\n'
                 'max_apery = 93386641873154605000\n'
                 'F = 93386641863490928591\n'
                 'genus = (skipped: s0 exceeds enumeration cap; raise GTSG_S0_CAP)\n'),
        'json': ('{"case": "KLT_N", "delta": "3", "e": "34", "frobenius": '
                 '"93386641863490928591", "generators": ["9663676409", '
                 '"19327352825", "38654705657", "77309411321", '
                 '"154618822649", "309237645305", "618475290617", '
                 '"1236950581241", "2473901162489", "4947802324985", '
                 '"9895604649977", "19791209299961", "39582418599929", '
                 '"79164837199865", "158329674399737", "316659348799481", '
                 '"633318697598969", "1266637395197945", "2533274790395897", '
                 '"5066549580791801", "10133099161583609", '
                 '"20266198323167225", "40532396646334457", '
                 '"81064793292668921", "162129586585337849", '
                 '"324259173170675705", "648518346341351417", '
                 '"1297036692682702841", "2594073385365405689", '
                 '"5188146770730811385", "10376293541461622777", '
                 '"20752587082923245561", "41505174165846491129", '
                 '"83010348331692982265"], "genus": null, "k": "3", '
                 '"max_apery": "93386641873154605000", "n": "30"}\n'),
        'csv': ('n,k,generators,delta,e,case,max_apery,frobenius,genus\r\n'
                '30,3,9663676409 19327352825 38654705657 77309411321 '
                '154618822649 309237645305 618475290617 1236950581241 '
                '2473901162489 4947802324985 9895604649977 19791209299961 '
                '39582418599929 79164837199865 158329674399737 '
                '316659348799481 633318697598969 1266637395197945 '
                '2533274790395897 5066549580791801 10133099161583609 '
                '20266198323167225 40532396646334457 81064793292668921 '
                '162129586585337849 324259173170675705 648518346341351417 '
                '1297036692682702841 2594073385365405689 5188146770730811385 '
                '10376293541461622777 20752587082923245561 '
                '41505174165846491129 '
                '83010348331692982265,3,34,KLT_N,93386641873154605000,93386641863490928591,\r\n'),
    },
    ('frobenius', '--n', '5', '--k', '3'): {
        'text': 'F = 81483\n',
        'json': '{"frobenius": "81483", "k": "3", "n": "5"}\n',
        'csv': ('n,k,frobenius\r\n'
                '5,3,81483\r\n'),
    },
    ('oracle', 'apery', '--gens', '7,11,13'): {
        'text': '0 11 13 22 24 26 37\n',
        'json': ('{"apery": ["0", "11", "13", "22", "24", "26", "37"], '
                 '"gens": ["7", "11", "13"], "modulus": "7"}\n'),
        'csv': ('modulus,apery\n'
                '7,[0, 11, 13, 22, 24, 26, 37]\n'),
    },
    ('oracle', 'frobenius', '--gens', '7,11,13'): {
        'text': '30\n',
        'json': '{"frobenius": "30", "gens": ["7", "11", "13"]}\n',
        'csv': ('frobenius\n'
                '30\n'),
    },
    ('oracle', 'genus', '--gens', '7,11,13'): {
        'text': '16\n',
        'json': '{"gens": ["7", "11", "13"], "genus": "16"}\n',
        'csv': ('genus\n'
                '16\n'),
    },
    ('oracle', 'membership', '--gens', '7,11,13', '--x', '30'): {
        'text': 'not-member\n',
        'json': '{"gens": ["7", "11", "13"], "member": false, "x": "30"}\n',
        'csv': ('x,member\n'
                '30,False\n'),
    },
    ('verify', '--n-max', '1', '--k-max', '2', '--s0-max', '1000'): {
        'text': ('GT(0,1) s0=2 match\n'
                 'GT(0,2) s0=2 match\n'
                 'GT(1,1) s0=5 match\n'
                 'GT(1,2) s0=7 match\n'
                 '4 points, 0 mismatched\n'),
        'json': ('{"mismatched": "0", "points": [{"k": "1", "mismatches": [], '
                 '"n": "0", "s0": "2", "status": "match"}, {"k": "2", '
                 '"mismatches": [], "n": "0", "s0": "2", "status": "match"}, '
                 '{"k": "1", "mismatches": [], "n": "1", "s0": "5", "status": '
                 '"match"}, {"k": "2", "mismatches": [], "n": "1", "s0": "7", '
                 '"status": "match"}], "total": "4"}\n'),
        'csv': ('n,k,s0,status,detail\r\n'
                '0,1,2,match,\r\n'
                '0,2,2,match,\r\n'
                '1,1,5,match,\r\n'
                '1,2,7,match,\r\n'),
    },
}


class TestExactBytes:
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("argv", list(EXACT_STDOUT), ids=" ".join)
    def test_stdout(self, capsys, monkeypatch, argv, fmt):
        monkeypatch.delenv("GTSG_S0_CAP", raising=False)   # (30, 3) skips the genus
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == EXACT_STDOUT[argv][fmt]
