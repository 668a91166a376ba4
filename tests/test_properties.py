"""Structural identities and membership lemmas for the GT(n,k) family.

The closure and step-down lemmas are checked at residue-class level: each
condition compares x against the least semigroup member in a residue class,
and both sides shift by the same multiple of s_0 inside a class, so the
least member is the worst case.  Checking it therefore proves the lemma for
every member, which covers the stated range up to 4*s_(n+delta).  A direct
scan over that range is run in addition on the points where it is small.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gtsg import thabit, verify
from gtsg.thabit import (
    Case,
    apery_coeffs,
    apery_set_closed,
    case_of,
    coeff_solve,
    delta,
    generator_at,
    max_apery,
    minimal_generating_set,
)

from spec_reference import coeff_value, iter_valid_sequences

GRID = verify.grid_points()
SMALL_GRID = verify.grid_points(s0_max=10**4)


def test_rewriting_identity():
    # s_i + 2*s_j = 2*s_(i-1) + s_(j+1) for 0 < i <= j < n + delta
    for n, k in GRID:
        m = n + delta(n, k)
        s = [generator_at(n, k, i) for i in range(m + 2)]
        for i in range(1, m):
            for j in range(i, m):
                assert s[i] + 2 * s[j] == 2 * s[i - 1] + s[j + 1], (n, k, i, j)


def test_residue_law():
    for n, k in GRID:
        s0 = generator_at(n, k, 0)
        for i in range(n + delta(n, k) + 1):
            expected = ((2**i - 1) * (2**k - 1)) % s0
            assert generator_at(n, k, i) % s0 == expected, (n, k, i)


def test_max_apery_residue():
    for n, k in GRID:
        s0 = generator_at(n, k, 0)
        assert max_apery(n, k) % s0 == (s0 - (2**k - 1)) % s0, (n, k)


def test_apery_coeffs_cardinality_and_injectivity():
    for n, k in SMALL_GRID:
        _, coeffs = apery_coeffs(n, k)
        s0 = generator_at(n, k, 0)
        assert len(coeffs) == s0, (n, k)
        values = [coeff_value(n, k, t) for t in coeffs]
        assert len(set(values)) == s0, (n, k)
        assert len({v % s0 for v in values}) == s0, (n, k)


def test_keqn_counting_formula():
    # |Ap| = 2 + (2^(2n-1)) + (2^(2n-1) - 1) = 2^(2n) + 1 = s_0
    for n in range(2, 7):
        assert len(apery_coeffs(n, n)[1]) == 2 ** (2 * n) + 1


def test_coeff_solve_uniqueness_exhaustive():
    for length in range(1, 13):
        seen = {}
        for t in iter_valid_sequences(length, last_two_ok=True):
            p = sum(ti * (2**i - 1) for i, ti in enumerate(t, start=1))
            assert p not in seen, (length, t, seen[p])
            seen[p] = t
        assert sorted(seen) == list(range(2 * (2**length - 1) + 1))
        for p, t in seen.items():
            assert coeff_solve(p, length) == t


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=18), st.data())
def test_coeff_solve_round_trip(length, data):
    target = data.draw(st.integers(min_value=0,
                                   max_value=2 * (2**length - 1)))
    t = coeff_solve(target, length)
    assert t is not None
    assert len(t) == length
    assert sum(ti * (2**i - 1) for i, ti in enumerate(t, start=1)) == target
    twos = [i for i, ti in enumerate(t) if ti == 2]
    assert len(twos) <= 1
    if twos:
        assert not any(t[: twos[0]])


def _closure_and_stepdown_by_residue(n, k):
    S = minimal_generating_set(n, k)
    s0 = S.gens[0]
    w = S.apery_set(s0).w
    c = 2**k - 1
    for r in range(s0):
        # closure at the least nonzero member of the class
        t = w[r] if r else s0
        y = 2 * t + c
        assert y >= w[y % s0], (n, k, r, "closure")
        if r:
            # step-down at the least member of the class
            x = w[r] - c
            assert x >= 0 and x >= w[x % s0], (n, k, r, "step-down")


def test_closure_and_stepdown_all_small_points():
    for n, k in SMALL_GRID:
        _closure_and_stepdown_by_residue(n, k)


def test_closure_and_stepdown_direct_scan():
    # literal range scan on the points where 4*s_(n+delta) stays small
    for n, k in SMALL_GRID:
        limit = 4 * generator_at(n, k, n + delta(n, k))
        if limit > 60_000:
            continue
        S = minimal_generating_set(n, k)
        s0 = S.gens[0]
        c = 2**k - 1
        for x in range(1, limit + 1):
            if not S.is_member(x):
                continue
            assert S.is_member(2 * x + c), (n, k, x, "closure")
            if x % s0:
                assert S.is_member(x - c), (n, k, x, "step-down")


def test_double_top_generator_excluded_except_1_2():
    for n, k in SMALL_GRID:
        top2 = 2 * generator_at(n, k, n + delta(n, k))
        ap = apery_set_closed(n, k)
        if (n, k) == (1, 2):
            assert ap[-1] == 74 == top2
        else:
            assert top2 not in ap, (n, k)


def test_kltn_membership_shortcut():
    # t_k = ... = t_(n-1) = 1 together with t_(n+delta) = 1 is always kept
    for n, k in SMALL_GRID:
        if case_of(n, k) is not Case.KLT_N:
            continue
        m = n + k
        t = [0] * m
        for i in range(k, n):
            t[i - 1] = 1
        t[m - 1] = 1
        assert tuple(t) in set(apery_coeffs(n, k)[1]), (n, k)
