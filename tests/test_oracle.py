"""Tests for the generic numerical-semigroup oracle.

Expected values marked as derived were computed with the brute-force
representability sieve below, which never touches the round-robin table
code it is checking.  The Apery tables are also checked against Dijkstra's
shortest paths, ``spec_reference.apery_w_dijkstra``.
"""

import importlib.util
from functools import reduce
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gtsg
import gtsg.cli
from gtsg import oracle
from gtsg.oracle import (
    EmptyInput,
    GcdNotOne,
    NotMember,
    ZeroModulus,
    make_semigroup,
)
from gtsg.verify import verify_grid
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


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 300),
       st.lists(st.integers(2**62, 2**64), min_size=1, max_size=4),
       st.integers(0, 2))
def test_round_robin_matches_dijkstra_on_wide_lists(m, wide, times):
    # max(gens) >= 2^62 is too wide for the sieve; x is 1, m or 2m
    gens = tuple(sorted({m, *wide}))
    assume(reduce(gcd, gens) == 1)
    x = m * times or 1
    assert oracle._apery_w(gens, x) == apery_w_dijkstra(gens, x)
