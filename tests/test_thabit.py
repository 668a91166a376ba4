"""Tests for the GT(n,k) closed forms, pinned to known reference values."""

import random
import time
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spec_reference
from gtsg import thabit, verify
from gtsg.thabit import (
    Case,
    apery_coeffs,
    apery_set_closed,
    case_of,
    coeff_solve,
    delta,
    embedding_dimension,
    frobenius_closed,
    generator_at,
    generator_decimals,
    genus_closed,
    max_apery,
    minimal_generating_set,
)
from spec_reference import (
    coeff_value,
    frobenius_k2_closed,
    genus_from_apery,
    max_apery_fast_kltn,
)


class TestGenerators:
    def test_values(self):
        assert generator_at(0, 3, 0) == 2
        assert generator_at(3, 2, 5) == 1277
        assert generator_at(5, 3, 0) == 281
        for n in range(31):
            for k in range(1, 31):
                for i in range(31):
                    # the README's s_i = (2^k + 1) * 2^(n + i) - (2^k - 1)
                    assert generator_at(n, k, i) == (2**k + 1) * 2**(n + i) - (2**k - 1)

    def test_minimal_sets(self):
        assert minimal_generating_set(1, 3).gens == (11, 29, 65, 137)
        assert minimal_generating_set(2, 3).gens == (29, 65, 137, 281, 569)
        assert minimal_generating_set(0, 1).gens == (2, 5)
        assert minimal_generating_set(0, 3).gens == (2, 11)
        assert minimal_generating_set(3, 2).gens == (37, 77, 157, 317, 637, 1277)
        assert minimal_generating_set(7, 3).gens == (
            1145, 2297, 4601, 9209, 18425, 36857, 73721, 147449, 294905,
            589817, 1179641)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            generator_at(1, 0, 0)
        with pytest.raises(ValueError):
            generator_at(-1, 2, 0)
        with pytest.raises(ValueError):
            generator_decimals(1, 0)
        with pytest.raises(ValueError):
            generator_decimals(-1, 2)


# one point of every case: (1, 2), n = 0, k = 1, k < n, k = n, k > n
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 300), st.integers(1, 300))
@example(1, 2)
@example(0, 1)
@example(0, 300)
@example(5, 1)
@example(9, 4)
@example(6, 6)
@example(300, 300)
@example(3, 11)
def test_generator_decimals_are_the_minimal_generators(n, k):
    assert list(generator_decimals(n, k)) == [str(g) for g in minimal_generating_set(n, k).gens]


class TestDeltaAndDimension:
    @pytest.mark.parametrize("n,k,expected", [(0, 3, 1), (3, 2, 2), (1, 3, 2)])
    def test_delta(self, n, k, expected):
        assert delta(n, k) == expected

    @pytest.mark.parametrize("n,k,expected", [(0, 3, 2), (3, 2, 6), (7, 3, 11)])
    def test_embedding_dimension(self, n, k, expected):
        assert embedding_dimension(n, k) == expected


class TestCases:
    @pytest.mark.parametrize("n,k,expected", [
        ((1), 2, Case.EXCEPTION_1_2),
        (0, 7, Case.N0),
        (4, 4, Case.KEQ_N),
        (0, 1, Case.N0),
        (1, 1, Case.K1),
        (5, 1, Case.K1),
        (5, 3, Case.KLT_N),
        (2, 3, Case.KGT_N),
    ])
    def test_tag(self, n, k, expected):
        assert case_of(n, k) is expected

    def test_every_point_has_exactly_one_case(self):
        for n in range(0, 9):
            for k in range(1, 9):
                case_of(n, k)  # must not raise


class TestCoeffValue:
    def test_reference_values(self):
        assert coeff_value(5, 3, (0, 1, 1, 1, 0, 0, 0, 1)) == 81764
        assert coeff_value(2, 3, (0, 2, 1, 1)) == 1124

    def test_zeros(self):
        assert coeff_value(4, 2, (0,) * 6) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            coeff_value(5, 3, (0, 1))


class TestCoeffSolve:
    def test_reference_solutions(self):
        assert coeff_solve(10, 4) == (0, 1, 1, 0)
        assert coeff_solve(0, 5) == (0, 0, 0, 0, 0)
        # weights (1, 3, 7): only 2*3 reaches 6
        assert coeff_solve(6, 3) == (0, 2, 0)

    def test_out_of_range(self):
        assert coeff_solve(-1, 3) is None
        assert coeff_solve(2 * (2**3 - 1) + 1, 3) is None

    def test_range_limits(self):
        assert coeff_solve(2 * (2**4 - 1), 4) == (0, 0, 0, 2)

    def test_equals_the_full_scan(self):
        # every target of each length, and a few past either end
        for length in range(14):
            top = 2 * (2**length - 1)
            outside = [-(2**length), -2, -1, top + 1, top + 2, 2 * top + 3, 4**length + 5]
            for target in [*range(top + 1), *outside]:
                assert coeff_solve(target, length) == \
                    spec_reference.coeff_solve_scan(target, length), (target, length)

    @pytest.mark.parametrize("length", [10_000, 12_345])
    def test_round_trip_long(self, length):
        # the greedy solver neither recurses nor enumerates, so lengths far
        # past the interpreter's recursion limit solve too
        top = 2 * (2**length - 1)
        rng = random.Random(length)
        targets = [0, 1, 2**length - 1, top - 1, top, 2**length + length]
        targets += [rng.randrange(top + 1) for _ in range(5)]
        for target in targets:
            t = coeff_solve(target, length)
            assert t is not None and len(t) == length
            assert sum(ti * (2**i - 1) for i, ti in enumerate(t, start=1)) == target
            twos = [i for i, ti in enumerate(t) if ti == 2]
            assert len(twos) <= 1
            if twos:
                assert not any(t[: twos[0]])
        assert coeff_solve(top, length) == (0,) * (length - 1) + (2,)
        assert coeff_solve(top + 1, length) is None
        assert coeff_solve(-1, length) is None

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 149), st.integers(1, 48), st.integers(-1, 1),
           st.integers(-1, 2))
    @example(5, 3, -1, 0)
    @example(5, 3, 0, 0)
    @example(5, 3, 1, 0)
    def test_runs_of_ones_equal_the_full_scan(self, zero, r, carry, extra):
        # a top run of r ones above the 0 bit ``zero``, and a low part that
        # puts low + r one below, at or one past that bit: the solver takes
        # the run in one step only in the first case
        low = (1 << zero) - r + carry
        assume(0 <= low < 1 << zero)
        target = (((1 << r) - 1) << (zero + 1)) + low
        length = target.bit_length() + extra
        assert coeff_solve(target, length) == \
            spec_reference.coeff_solve_scan(target, length), (target, length)


class TestMaxApery:
    def test_reference_values(self):
        assert max_apery(5, 3) == 81764
        assert max_apery(2, 2) == 354  # s_1 + s_4 = 37 + 317
        assert max_apery(2, 3) == 1124
        assert max_apery(1, 2) == 74
        assert max_apery(3, 2) == 1588  # 2s_1 + s_2 + s_5

    def test_term_by_term_small(self):
        for n in range(0, 41):
            for k in range(1, 41):
                assert max_apery(n, k) == spec_reference.max_apery_term_by_term(n, k), (n, k)

    @pytest.mark.parametrize("n,k", [
        (0, 10_000), (10_000, 1), (10_000, 3), (10_500, 10_000), (10_000, 10_000),
        (3, 10_000), (2_000, 10_001), (4_000, 2_000),
    ])
    def test_term_by_term_large(self, n, k):
        assert max_apery(n, k) == spec_reference.max_apery_term_by_term(n, k)

    @pytest.mark.parametrize("n,k", [
        (1, 300_000), (300_000, 299_999), (300_000, 150_000),
    ])
    def test_runtime_budget_at_large_n_or_k(self, n, k):
        start = time.perf_counter()
        value = max_apery(n, k)
        assert time.perf_counter() - start < 1.0, "runtime budget 1 s"
        s0 = generator_at(n, k, 0)
        assert value % s0 == (s0 - (2**k - 1)) % s0     # the residue law

    def test_takes_the_prefix_digit_sum_without_its_digits(self):
        # GT(10^6, 1) has a prefix of 10^6 - 1 positions: a tuple of them
        # would trace about 16 MB against an answer of about 250 kB
        tracemalloc.start()
        try:
            value = max_apery(10**6, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # k = 1: the top pattern t_n = t_(n+1) = 1 and an empty prefix
        assert value == generator_at(10**6, 1, 10**6) + generator_at(10**6, 1, 10**6 + 1)
        answer = (value.bit_length() + 7) // 8
        assert peak < 4 * answer, (peak, answer)

    def test_fast_path(self):
        assert max_apery_fast_kltn(5, 3) == 81764
        assert max_apery_fast_kltn(7, 3) == 1327048
        assert max_apery_fast_kltn(3, 2) == max_apery(3, 2)

    def test_fast_path_domain(self):
        with pytest.raises(ValueError):
            max_apery_fast_kltn(2, 2)  # not k < n
        with pytest.raises(ValueError):
            max_apery_fast_kltn(9, 2)  # n > 2^k + k - 3

    def test_fast_path_agrees_where_defined(self):
        for k in range(2, 6):
            for n in range(k + 1, min(2**k + k - 3, 14) + 1):
                assert max_apery_fast_kltn(n, k) == max_apery(n, k), (n, k)


class TestFrobeniusClosed:
    def test_reference_values(self):
        assert frobenius_closed(5, 3) == 81483
        assert frobenius_closed(7, 3) == 1325903
        assert frobenius_closed(2, 3) == 1095
        assert frobenius_closed(1, 2) == 67

    def test_k1_identity(self):
        for n in range(1, 13):
            assert frobenius_closed(n, 1) == 9 * 4**n - 3 * 2**n - 1

    def test_keqn_identity(self):
        for n in range(1, 11):
            expected = (2**n + 1) * 2**n * (2 ** (2 * n) + 1) - (2**n - 1)
            assert frobenius_closed(n, n) == expected

    def test_k1_and_keqn_overlap_at_1_1(self):
        s1, s2 = generator_at(1, 1, 1), generator_at(1, 1, 2)
        assert max_apery(1, 1) == s1 + s2  # both case formulas coincide here

    def test_k2_shortcut(self):
        # F(GT(n,2)) = 25*2^(2n) - 5*2^n - 9 for n >= 3; GT(2,2) is the
        # k = n case instead (F = s_1 + s_4 - s_0 = 337)
        for n in range(3, 13):
            assert frobenius_k2_closed(n) == frobenius_closed(n, 2)
        assert frobenius_closed(2, 2) == 337

    def test_k2_shortcut_domain(self):
        with pytest.raises(ValueError):
            frobenius_k2_closed(2)


class TestAperyCoeffs:
    @pytest.mark.parametrize("n,k,count", [(3, 2, 37), (2, 2, 17), (2, 3, 29)])
    def test_counts(self, n, k, count):
        assert len(apery_coeffs(n, k)[1]) == count

    def test_gt_3_2_values_match_listing(self):
        # the 37 sums published for this instance, in coefficient form
        s = [generator_at(3, 2, i) for i in range(6)]
        listing = {
            0, s[1], 2 * s[1], s[2], s[1] + s[2], 2 * s[1] + s[2], 2 * s[2],
            s[3], s[1] + s[3], 2 * s[1] + s[3], s[2] + s[3],
            s[1] + s[2] + s[3], 2 * s[1] + s[2] + s[3], 2 * s[2] + s[3],
            2 * s[3], s[4], s[1] + s[4], 2 * s[1] + s[4], s[2] + s[4],
            s[1] + s[2] + s[4], 2 * s[1] + s[2] + s[4], 2 * s[2] + s[4],
            s[3] + s[4], s[1] + s[3] + s[4], 2 * s[1] + s[3] + s[4],
            s[2] + s[3] + s[4], s[1] + s[2] + s[3] + s[4],
            2 * s[1] + s[2] + s[3] + s[4], 2 * s[2] + s[3] + s[4],
            2 * s[3] + s[4], 2 * s[4], s[5], s[1] + s[5], 2 * s[1] + s[5],
            s[2] + s[5], s[1] + s[2] + s[5], 2 * s[1] + s[2] + s[5],
        }
        assert set(apery_set_closed(3, 2)) == listing

    def test_gt_2_3_values_match_listing(self):
        s = [generator_at(2, 3, i) for i in range(5)]
        listing = {
            0, s[1], 2 * s[1], s[2], s[1] + s[2], 2 * s[1] + s[2], 2 * s[2],
            s[3], s[1] + s[3], 2 * s[1] + s[3], s[2] + s[3],
            s[1] + s[2] + s[3], 2 * s[1] + s[2] + s[3], 2 * s[2] + s[3],
            2 * s[3], s[4], s[1] + s[4], 2 * s[1] + s[4], s[2] + s[4],
            s[1] + s[2] + s[4], 2 * s[1] + s[2] + s[4], 2 * s[2] + s[4],
            s[3] + s[4], s[1] + s[3] + s[4], 2 * s[1] + s[3] + s[4],
            s[2] + s[3] + s[4], s[1] + s[2] + s[3] + s[4],
            2 * s[1] + s[2] + s[3] + s[4], 2 * s[2] + s[3] + s[4],
        }
        assert set(apery_set_closed(2, 3)) == listing

    def test_gt_2_2_values_match_listing(self):
        s = [generator_at(2, 2, i) for i in range(5)]
        listing = {
            0, s[1], 2 * s[1], s[2], s[1] + s[2], 2 * s[1] + s[2], 2 * s[2],
            s[3], s[1] + s[3], 2 * s[1] + s[3], s[2] + s[3],
            s[1] + s[2] + s[3], 2 * s[1] + s[2] + s[3], 2 * s[2] + s[3],
            2 * s[3], s[4], s[1] + s[4],
        }
        assert set(apery_set_closed(2, 2)) == listing


class TestAperySetClosed:
    def test_exception_pair(self):
        assert apery_set_closed(1, 2) == [0, 17, 34, 37, 54, 71, 74]

    def test_n0(self):
        assert apery_set_closed(0, 3) == [0, 11]
        assert apery_set_closed(0, 5) == [0, generator_at(0, 5, 1)]

    def test_cardinality_is_s0(self):
        for n, k in [(1, 1), (3, 1), (2, 2), (3, 2), (4, 3), (2, 5), (1, 4)]:
            assert len(apery_set_closed(n, k)) == generator_at(n, k, 0)

    def test_mask_enumeration_matches_tuple_enumeration(self):
        for n, k in [(0, 4), (1, 1), (1, 2), (4, 1), (3, 2), (5, 3), (2, 2),
                     (3, 3), (1, 5), (2, 7), (6, 2), (2, 3), (4, 4), (5, 2)]:
            rows = spec_reference.sorted_apery_rows(n, k)
            assert apery_set_closed(n, k) == [v for v, _ in rows], (n, k)
            assert apery_coeffs(n, k) == ([v for v, _ in rows], [t for _, t in rows]), (n, k)


class TestGenusClosed:
    def test_n0(self):
        assert genus_closed(0, 3) == 5

    def test_exception_pair(self):
        assert genus_closed(1, 2) == 38  # (0+17+34+37+54+71+74)/7 - 3

    def test_runs_match_enumerated_selmer_sum(self):
        for n, k in verify.grid_points(s0_max=200_000):
            s0 = generator_at(n, k, 0)
            assert genus_closed(n, k) == genus_from_apery(s0, apery_set_closed(n, k)), (n, k)

    def test_k1_small(self):
        # T(1) = <5, 11, 23>
        S = minimal_generating_set(1, 1)
        assert S.gens == (5, 11, 23)
        assert genus_closed(1, 1) == S.genus()

    def test_equal_to_the_per_run_sum(self):
        for n in range(0, 61):
            for k in range(1, 61):
                assert genus_closed(n, k) == spec_reference.genus_per_run(n, k), (n, k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), st.integers(1, 300))
    @example(300, 1)
    @example(300, 299)
    @example(300, 300)
    @example(299, 300)
    @example(0, 300)
    def test_equal_to_the_per_run_sum_up_to_300(self, n, k):
        assert genus_closed(n, k) == spec_reference.genus_per_run(n, k)

    def test_popcount_step(self):
        by_bits = spec_reference.popcount_sum_by_bits
        pairs = [
            # count - 2*prev < 0
            (3, 0), (5, 7), (100, 150), (2**70 + 3, 2**71 - 5),
            # count - 2*prev in 0..2
            (1, 2), (5, 10), (5, 11), (5, 12), (2**64 - 1, 2**65),
            # count - 2*prev > 2
            (0, 5), (5, 20), (3, 1000), (2**80, 2**81 + 500),
            # prev = 0 and count = 0
            (0, 0),
            # prev up to 300 bits
            (2**299 + 12345, 2**300 + 24687), (2**300 - 1, 2**301 - 7),
            (2**300 - 1, 2**301 + 40), (3**189, 2 * 3**189 + 1),
        ]
        for prev, count in pairs:
            assert thabit._popcount_step(by_bits(prev), prev, count) == by_bits(count), \
                (prev, count)


class TestAperyRuns:
    """The one run rule against the per-case loops it replaced."""

    def test_equal_to_the_per_case_loops(self):
        for n in range(0, 61):
            for k in range(1, 61):
                assert thabit._apery_runs(n, k) == spec_reference.apery_runs_per_case(n, k), (n, k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), st.integers(1, 300))
    @example(300, 1)
    @example(300, 299)
    @example(300, 300)
    @example(299, 300)
    @example(0, 300)
    def test_equal_to_the_per_case_loops_up_to_300(self, n, k):
        assert thabit._apery_runs(n, k) == spec_reference.apery_runs_per_case(n, k)

    def test_fit_count_every_bound_of_small_widths(self):
        # first > last (width 0) included; bounds past either end included
        for first in range(1, 6):
            for width in range(9):
                last = first + width - 1
                top = sum(2**i - 1 for i in range(first, last + 1))
                for bound in range(-3, top + 4):
                    assert thabit._fit_count(bound, first, last) == \
                        spec_reference.fit_count_scan(bound, first, last), (bound, first, last)

    def test_fit_count_random_bounds(self):
        rng = random.Random(12)
        for _ in range(20_000):
            first = rng.randint(1, 80)
            last = rng.randint(first - 5, first + 120)
            bound = rng.randint(-(2 ** rng.randint(0, 200)), 2 ** rng.randint(0, 200))
            assert thabit._fit_count(bound, first, last) == \
                spec_reference.fit_count_scan(bound, first, last), (bound, first, last)

    def test_popcount_sum_small_counts(self):
        for c in range(3000):
            assert spec_reference._popcount_sum(c) == sum(bin(x).count("1") for x in range(c)), c

    def test_popcount_sum_random_counts(self):
        rng = random.Random(13)
        counts = [rng.getrandbits(rng.randint(1, 400)) for _ in range(2000)]
        counts += [2**b + d for b in range(400) for d in (-1, 0, 1)]
        for c in counts:
            assert spec_reference._popcount_sum(c) == spec_reference.popcount_sum_by_bits(c), c

    @pytest.mark.parametrize("n,k", [(4000, 3), (3, 4000), (2000, 2000), (1000, 2000),
                                     (3000, 1000)])
    def test_genus_runtime_budget_at_n_plus_k_4000(self, n, k):
        start = time.perf_counter()
        genus = genus_closed(n, k)          # raises unless the division is exact
        assert time.perf_counter() - start < 1.0, "runtime budget 1 s"
        frobenius = frobenius_closed(n, k)
        # every gap lies in [1, F], and of x and F - x at most one is in S
        assert (frobenius + 1) // 2 <= genus <= frobenius


def run_maxima(n, k):
    """The largest Q-value of each run (j, count) of ``_apery_runs``.

    Its mask is M = (count - 1) << j, worth 2*A*M - B*popcount(M), plus
    2*s_j for the 2 at j when j >= 1.
    """
    b = 2**k - 1
    a = generator_at(n, k, 0) + b
    tops = []
    for j, count in thabit._apery_runs(n, k):
        mask = (count - 1) << j
        top = 2 * a * mask - b * mask.bit_count()
        tops.append(top + 2 * ((a << j) - b) if j else top)
    return tops


def check_runs_against_max_apery(n, k):
    """The runs of ``_apery_runs`` against ``max_apery`` and against the
    per-case maximum of the reference, written apart from the one case
    rule that both of them read: closed forms that must agree at any size,
    a cheap consistency check in the sense of certifying algorithms
    (McConnell, Mehlhorn, Naher and Schweitzer, Computer Science Review
    2011).  It does not show that the values are distinct mod s_0; only
    the oracle's table checks that."""
    counts = [count for _, count in thabit._apery_runs(n, k)]
    assert min(counts) >= 1
    assert sum(counts) == generator_at(n, k, 0)
    top = max(run_maxima(n, k))
    assert top == max_apery(n, k)
    assert top == spec_reference.max_apery_term_by_term(n, k)


class TestRunsAgreeWithMaxApery:
    def test_every_point_up_to_60(self):
        for n in range(0, 61):
            for k in range(1, 61):
                check_runs_against_max_apery(n, k)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 1000), st.integers(1, 1000))
    @example(1000, 1)
    @example(1000, 999)
    @example(1000, 1000)
    @example(999, 1000)
    @example(0, 1000)
    @example(1, 2)
    def test_up_to_1000(self, n, k):
        check_runs_against_max_apery(n, k)
