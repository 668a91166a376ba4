"""Tests for the generic numerical-semigroup oracle.

Expected values marked as derived were computed with the brute-force
representability sieve below, which never touches the round-robin table
code it is checking.  The Apery tables are also checked against Dijkstra's
shortest paths, ``spec_reference.apery_w_dijkstra``.
"""

import importlib.util
import json
import sys
from functools import reduce
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gtsg
import gtsg.cli
from gtsg import oracle, thabit
from gtsg.oracle import (
    EmptyInput,
    GcdNotOne,
    NotMember,
    ZeroModulus,
    make_semigroup,
)
from gtsg.verify import grid_points, verify_grid
from spec_reference import apery_w_dijkstra, gaps


def representable_flags(gens, limit):
    """flags[x] = 1 iff x is a nonnegative combination of gens; pure DP."""
    flags = bytearray(limit + 1)
    flags[0] = 1
    for x in range(1, limit + 1):
        for g in gens:
            if g <= x and flags[x - g]:
                flags[x] = 1
                break
    return flags


def brute_apery(gens, x, limit):
    """Least representable value per residue mod x, by direct scan."""
    flags = representable_flags(gens, limit)
    w = [None] * x
    for v in range(limit + 1):
        if flags[v] and w[v % x] is None:
            w[v % x] = v
    assert all(v is not None for v in w), "scan limit too small"
    return w


class TestConstruction:
    def test_example_set(self):
        assert make_semigroup([7, 11, 13]).gens == (7, 11, 13)

    def test_full_naturals(self):
        assert make_semigroup([1]).gens == (1,)

    def test_gcd_not_one(self):
        with pytest.raises(GcdNotOne):
            make_semigroup([4, 6])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            make_semigroup([])

    def test_zero_only(self):
        with pytest.raises(EmptyInput):
            make_semigroup([0])

    def test_normalization(self):
        assert make_semigroup([13, 7, 11, 7]).gens == (7, 11, 13)


class TestApery:
    def test_reference_set(self):
        table = make_semigroup([7, 11, 13]).apery_set(7)
        assert sorted(table.w) == [0, 11, 13, 22, 24, 26, 37]

    def test_full_naturals(self):
        assert make_semigroup([1]).apery_set(1).w == (0,)

    def test_two_generators(self):
        # brute scan up to 22 gives {0, 11}
        assert sorted(make_semigroup([2, 11]).apery_set(2).w) == [0, 11]
        assert brute_apery([2, 11], 2, 22) == [0, 11]

    def test_default_modulus_is_smallest_generator(self):
        S = make_semigroup([7, 11, 13])
        assert S.apery_set().modulus == 7

    def test_not_member(self):
        with pytest.raises(NotMember):
            make_semigroup([7, 11, 13]).apery_set(8)

    def test_zero_modulus(self):
        with pytest.raises(ZeroModulus):
            make_semigroup([7, 11, 13]).apery_set(0)

    def test_invariants_reference_set(self):
        S = make_semigroup([7, 11, 13])
        table = S.apery_set(7)
        assert len(set(table.w)) == 7
        assert table.w[0] == 0
        for r, w in enumerate(table.w):
            assert w % 7 == r
            assert S.is_member(w)
            if w >= 7:
                assert not S.is_member(w - 7)


class TestFrobenius:
    def test_reference_set(self):
        S = make_semigroup([7, 11, 13])
        assert S.frobenius() == 30
        # independent scan: 30 unreachable, everything from 31 to 60 reachable
        flags = representable_flags([7, 11, 13], 60)
        assert flags[30] == 0
        assert all(flags[x] for x in range(31, 61))

    def test_full_naturals(self):
        assert make_semigroup([1]).frobenius() == -1

    def test_gt_1_2_generators(self):
        assert make_semigroup([7, 17, 37]).frobenius() == 67


class TestGenus:
    def test_full_naturals(self):
        assert make_semigroup([1]).genus() == 0

    def test_reference_set(self):
        S = make_semigroup([7, 11, 13])
        assert S.genus() == 16
        assert len(gaps(S)) == 16

    def test_two_generators(self):
        S = make_semigroup([2, 11])
        assert S.genus() == 5
        assert gaps(S) == [1, 3, 5, 7, 9]


class TestMembership:
    def test_frobenius_number_is_not_member(self):
        assert not make_semigroup([7, 11, 13]).is_member(30)

    def test_zero_is_member(self):
        assert make_semigroup([7, 11, 13]).is_member(0)

    def test_above_frobenius(self):
        assert make_semigroup([7, 11, 13]).is_member(31)

    def test_below_multiplicity(self):
        S = make_semigroup([7, 11, 13])
        assert not any(S.is_member(x) for x in range(1, 7))

    def test_negative(self):
        assert not make_semigroup([2, 3]).is_member(-2)


class TestMinimalGenerators:
    def test_redundant_sum(self):
        assert make_semigroup([2, 11, 13]).minimal_generators().gens == (2, 11)

    def test_already_minimal(self):
        S = make_semigroup([7, 11, 13])
        assert S.minimal_generators().gens == (7, 11, 13)

    def test_redundant_multiple(self):
        assert make_semigroup([2, 4, 11]).minimal_generators().gens == (2, 11)

    def test_full_naturals(self):
        assert make_semigroup([1, 3]).minimal_generators().gens == (1,)

    def test_idempotent_and_same_membership(self):
        S = make_semigroup([6, 9, 20, 29, 35])
        M = S.minimal_generators()
        assert M.minimal_generators().gens == M.gens
        upper = 2 * S.frobenius() + 2
        assert [S.is_member(x) for x in range(upper + 1)] == \
            [M.is_member(x) for x in range(upper + 1)]


class TestOneTable:
    """The oracle keeps only the table it built last: every caller is done
    with one semigroup's table before it asks for the next one's."""

    def test_sweep_holds_one_table_and_builds_each_once(self):
        oracle._apery_w.cache_clear()
        report = verify_grid(s0_max=5000, jobs=1)
        info = oracle._apery_w.cache_info()
        assert info.currsize == 1
        assert info.misses == len(report.points)

    def test_benchmark_tracer_sees_the_cold_build(self, capsys):
        # perfbench/spans.py patches _apery_w and reads its cache_info to
        # tell a cold build (one oracle.table span) from a hit
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        oracle._apery_w.cache_clear()
        tracer = spans.Tracer()
        tracer.install(gtsg)
        try:
            code = gtsg.cli.main(["oracle", "frobenius", "--gens", "7,11,13"])
        finally:
            tracer.uninstall()
        assert (code, capsys.readouterr().out) == (0, "30\n")
        calls, _, _, residues = tracer.agg["oracle.table"]
        assert (calls, residues) == (1, 7)


def built_in(gens, x):
    """The table of (gens, x) and the type of number the round robin built
    it in, read from ``oracle._apery_w``'s list ``w`` as the build returns."""
    code = oracle._apery_w.__wrapped__.__code__
    seen = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is code:
            seen.append(type(frame.f_locals["w"][0]))

    oracle._apery_w.cache_clear()
    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        table = oracle._apery_w(gens, x)
    finally:
        sys.setprofile(before)
    assert len(seen) == 1
    return table, seen[0]


# Every n a lap forms is at most inf + max(gens) = (x + 1) * max(gens), so
# the table is built in floats exactly when that is below 2^53.
FLOAT_TOP = 2**53 - 1
BOUNDARY = [
    # (x + 1) * max(gens) = 6361 * 1416003655831 = 2^53 - 1
    pytest.param((6360, FLOAT_TOP // 6361), 6360, float, id="2^53-1"),
    # 4096 * 2^41 = 2^53
    pytest.param((4095, 2**41), 4095, int, id="2^53"),
    # 321 * 28059810762433 = 2^53 + 1
    pytest.param((320, (2**53 + 1) // 321), 320, int, id="2^53+1"),
]


class TestFloatBoundary:
    """The round robin works in floats only while every sum it forms is
    exact, and every table it returns holds ints on either path."""

    @pytest.mark.parametrize("gens, x, kind", BOUNDARY)
    def test_boundary_tables_are_exact_ints(self, gens, x, kind):
        assert (x + 1) * max(gens) - 2**53 in (-1, 0, 1)
        table, built = built_in(gens, x)
        assert built is kind
        assert table == apery_w_dijkstra(gens, x)
        assert all(type(v) is int for v in table)
        # with x and one generator the laps run up to within two
        # generators of 2^53
        assert max(table) + 2 * max(gens) in (2**53 - 1, 2**53, 2**53 + 1)

    def test_a_modulus_given_by_x(self, capsys):
        # 6360 = 2000 + 4360 is no generator: the table `oracle apery --x`
        # asks for, on the float side of the bound
        gens, x = (2000, 4360, FLOAT_TOP // 6361), 6360
        table, built = built_in(gens, x)
        assert built is float
        assert table == apery_w_dijkstra(gens, x)
        assert all(type(v) is int for v in table)
        semigroup = make_semigroup(gens)
        assert semigroup.apery_set(x).w == table
        argv = ["oracle", "apery", "--gens", ",".join(map(str, gens)),
                "--x", str(x), "--format", "json"]
        assert gtsg.cli.main(argv) == 0
        # the JSON writer writes ints as quoted decimal strings
        out = json.loads(capsys.readouterr().out)["apery"]
        assert out == [str(v) for v in sorted(table)]

    def test_the_verify_grid_takes_floats_and_wide_lists_ints(self):
        # the largest table of the benchmark's verify sweep (s_0 <= 60000)
        largest = max((thabit.minimal_generating_set(n, k).gens
                       for n, k in grid_points(s0_max=60_000)),
                      key=lambda gens: gens[0] * gens[-1])
        assert largest[0] * largest[-1] > 10**14
        assert built_in(largest, largest[0])[1] is float
        # an oracle list whose smallest generator times its largest passes
        # 2^62, as three in four of the benchmark's generic lists do
        wide = (1009, 2**52 + 3, 2**62 // 1009 + 11)
        table, built = built_in(wide, 1009)
        assert built is int
        assert table == apery_w_dijkstra(wide, 1009)


gen_lists = st.lists(st.integers(min_value=1, max_value=120),
                     min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(gen_lists)
def test_apery_cardinality_and_residues(gens):
    try:
        S = make_semigroup(gens)
    except GcdNotOne:
        return
    x = S.gens[0]
    table = S.apery_set(x)
    assert len(table.w) == x
    assert len(set(table.w)) == x
    assert all(w % x == r for r, w in enumerate(table.w))


@settings(max_examples=80, deadline=None)
@given(gen_lists)
def test_frobenius_and_genus_against_sieve(gens):
    try:
        S = make_semigroup(gens)
    except GcdNotOne:
        return
    limit = max(S.apery_set().w) + 1
    flags = representable_flags(S.gens, limit)
    gaps = [x for x in range(limit) if not flags[x]]
    assert S.frobenius() == (max(gaps) if gaps else -1)
    assert S.genus() == len(gaps)
    assert [S.is_member(x) for x in range(limit)] == \
        [bool(f) for f in flags[:limit]]


@settings(max_examples=80, deadline=None)
@given(gen_lists)
def test_minimal_generators_fixed_point(gens):
    try:
        S = make_semigroup(gens)
    except GcdNotOne:
        return
    M = S.minimal_generators()
    assert M.minimal_generators().gens == M.gens
    assert set(M.gens) <= set(S.gens)


@st.composite
def apery_cases(draw):
    """A generator list with gcd 1 and a modulus x in its semigroup: the
    smallest generator, 1, or a sum of two generators that is not one, as
    ``oracle apery --x`` takes.  The list may also hold a multiple of x, a
    generator shifted by a multiple of x (so two share a residue) and a sum
    of two generators (redundant); none of them changes the semigroup."""
    gens = draw(st.lists(st.integers(1, 60), min_size=1, max_size=5, unique=True))
    assume(reduce(gcd, gens) == 1)
    sums = [a + b for a in gens for b in gens if a + b not in gens]
    x = draw(st.sampled_from([min(gens), 1, *sums]))
    g, h = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
    c = draw(st.integers(1, 3))
    extras = {"zero": c * x, "same": g + c * x, "redundant": g + h}
    kinds = draw(st.sets(st.sampled_from(sorted(extras))))
    gens += [extras[kind] for kind in sorted(kinds)]
    return tuple(sorted(set(gens))), x


@settings(max_examples=300, deadline=None)
@given(apery_cases())
# at 10 = 4 (mod 6) the cycle 1 -> 5 -> 3 holds w[3] = 9, so a cycle that
# does not pass through 0 must start at its least entry
@example(((6, 9, 10), 6))
def test_round_robin_matches_dijkstra_and_sieve(case):
    gens, x = case
    table = oracle._apery_w(gens, x)
    assert table == apery_w_dijkstra(gens, x)
    assert list(table) == brute_apery(gens, x, max(table))
    assert all(type(v) is int for v in table)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 300),
       st.lists(st.integers(2**62, 2**64), min_size=1, max_size=4),
       st.integers(0, 2))
def test_round_robin_matches_dijkstra_on_wide_lists(m, wide, times):
    # max(gens) >= 2^62 is too wide for the sieve; x is 1, m or 2m
    gens = tuple(sorted({m, *wide}))
    assume(reduce(gcd, gens) == 1)
    x = m * times or 1
    table = oracle._apery_w(gens, x)
    assert table == apery_w_dijkstra(gens, x)
    assert all(type(v) is int for v in table)
