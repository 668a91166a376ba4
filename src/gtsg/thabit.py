"""Closed forms for the semigroups generated by (2^k+1)*2^(n+i) - (2^k-1).

For parameters n >= 0, k >= 1 the family GT(n, k) has generators
s_i = (2^k+1)*2^(n+i) - (2^k-1).  This module provides the minimal
generating set, embedding dimension, the coefficient-set description of the
Apery set of s_0, the maximal Apery element, the Frobenius number and the
genus, all without enumerating semigroup elements.

Each case's Apery rule, (1, 2) aside, is three numbers (head, last,
bound), stated once in :func:`_rule`.  With s_i = A*2^i - B, the maximal
Apery element is the rule's top pattern plus one skew-binary prefix,
which a greedy conversion takes a run of ones at a time, so it and the
Frobenius number take O(m) big-integer operations, m = n + delta, and
never recurse.  The genus applies Selmer's formula to the Apery sum,
taken in one pass over the runs with chained popcount sums: O(m)
big-integer steps, no recursion and no listing of the values.

:func:`generator_decimals` writes the generators in base 10 for output.
It steps s_(i+1) = 2*s_i + B in exact Decimal arithmetic, whose
arithmetic and ``str`` are linear in the digits, so printing all m + 1
generators never goes through CPython's quadratic int-to-str conversion.

Coefficient sequences (t_1, ..., t_m) over {0,1,2} encode the element
Q = t_1*s_1 + ... + t_m*s_m and the scalar P = sum t_i*(2^i - 1).  A
sequence is "valid" when t_m <= 1 and a 2 at position j forces zeros at all
positions before j; at most one 2 can occur.

One listing, :func:`_apery_listing`, enumerates the Apery coefficient
set: a sequence is the bitmask of its 1s and the position of its single 2,
the kept masks of each position form one run, and the values are read off
a subset-sum table, sorted and checked once.  :func:`apery_set_closed`
returns the values and :func:`apery_coeffs` ``(values, coeffs)``, the
sequences decoded in the same order.  :func:`_apery_decoded` decodes the
codes by two half tables, rendered once each in the caller's form (tuples
for :func:`apery_coeffs`; the CLI's spaced text or lists of digit strings),
so a value's sequence is two lookups and one ``+``.  The spec-literal
form, every valid tuple filtered by the per-case rules, is kept in the
test suite as the reference for this one.
"""

from __future__ import annotations

from enum import Enum
from operator import lt

from .oracle import Semigroup, make_semigroup


class Case(Enum):
    """Which closed-form branch applies to (n, k)."""

    N0 = "n0"                  # n = 0
    K1 = "k1"                  # n >= 1, k = 1
    KLT_N = "k<n"              # 2 <= k < n
    KEQ_N = "k=n"              # k = n >= 2
    KGT_N = "k>n"              # n >= 1, k > n, k != 2
    EXCEPTION_1_2 = "(1,2)"    # the single exceptional pair


def _check_params(n: int, k: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _affine(n: int, k: int) -> tuple[int, int]:
    """(A, B) with s_i = A*2^i - B: A = (2^k+1)*2^n and B = 2^k - 1."""
    _check_params(n, k)
    return ((1 << k) + 1) << n, (1 << k) - 1


def generator_at(n: int, k: int, i: int) -> int:
    """s_i = (2^k + 1) * 2^(n+i) - (2^k - 1)."""
    a, b = _affine(n, k)
    return (a << i) - b


def delta(n: int, k: int) -> int:
    """Offset so that s_0 .. s_(n+delta) is the minimal generating set."""
    _check_params(n, k)
    if n == 0:
        return 1
    return k if k <= n else k - 1


def embedding_dimension(n: int, k: int) -> int:
    return n + delta(n, k) + 1


def minimal_generating_set(n: int, k: int) -> Semigroup:
    """The minimal system of generators {s_0, ..., s_(n+delta)}."""
    a, b = _affine(n, k)
    gens = [a - b]
    for _ in range(n + delta(n, k)):
        gens.append(2 * gens[-1] + b)           # s_(i+1) = 2*s_i + B
    return make_semigroup(gens)


def generator_decimals(n: int, k: int) -> list[str]:
    """s_0, ..., s_(n+delta) written in base 10.

    The same numbers as :func:`minimal_generating_set`, taken in Decimal
    under a context that neither rounds nor overflows (any rounding traps),
    so the recurrence s_(i+1) = 2*s_i + B and each ``str`` cost time linear
    in the digits, where ``str`` of an int is quadratic in CPython.
    """
    # imported here, not at the top: importing decimal costs milliseconds,
    # and every process that imports gtsg would pay them
    import decimal

    m = n + delta(n, k)
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
    with decimal.localcontext(ctx):
        two = decimal.Decimal(2)
        b = two**k - 1
        s = (b + 2) * two**n - b                # s_0 = (2^k + 1)*2^n - B
        out = [str(s)]
        for _ in range(m):
            s = 2 * s + b
            out.append(str(s))
    return out


def case_of(n: int, k: int) -> Case:
    _check_params(n, k)
    if n == 0:
        return Case.N0
    if k == 1:
        return Case.K1
    if (n, k) == (1, 2):
        return Case.EXCEPTION_1_2
    if k < n:
        return Case.KLT_N
    if k == n:
        return Case.KEQ_N
    return Case.KGT_N


def coeff_solve(target: int, length: int) -> tuple[int, ...] | None:
    """The unique valid prefix (t_1..t_length) with P = target.

    P = sum t_i*(2^i - 1) with a 2 only as the lowest nonzero digit is the
    canonical skew-binary number system (Myers, "An applicative
    random-access stack", IPL 1983): every P in [0, 2*(2^length - 1)] has
    exactly one such prefix, found greedily from the top position.  The test
    suite also checks this exhaustively for lengths 1..12.  A 2 is allowed
    at any position here because prefixes are completed by later
    coefficients.  Returns None when target lies outside that range.

    With i the bit length of x, x = 2^i - 1 is a 1 at position i,
    x = 2^i - 2 a 2 at i - 1, and any other x a 1 at i - 1, which clears
    its top bit and adds 1.  A top run of r ones above a 0 bit is thus r
    1s in a row, taken in one subtraction unless the low part plus r
    carries into that bit, so the prefixes of :func:`max_apery` cost a few
    full-width operations, however many ones they have.
    """
    if not 0 <= target <= 2 * ((1 << length) - 1):
        return None
    t = [0] * length
    x = target
    while x:
        i = x.bit_length()
        if x == (1 << i) - 1:
            t[i - 1] = 1
            break
        if x == (1 << i) - 2:
            # a 2 forces zeros below it
            t[i - 2] = 2
            break
        zero = (x ^ ((1 << i) - 1)).bit_length() - 1
        r = i - 1 - zero
        if (x & ((1 << zero) - 1)) + r >> zero:
            r = 1                       # the low part carries into the 0 bit
        t[i - 1 - r:i - 1] = [1] * r
        x -= (((1 << r) - 1) << (i - r)) - r
    return tuple(t)


def _rule(n: int, k: int) -> tuple[int, int, int]:
    """The Apery rule of GT(n,k) as three numbers (head, last, bound).

    The first ``head`` masks (bit i-1 for t_i = 1) lie below the case's
    pinned top pattern and are all kept, and past them come the masks with
    that pattern, kept while the scalar of t_1 .. t_last stays within
    ``bound``.  Every case but (1, 2) is such a rule.
    """
    case = case_of(n, k)
    m = n + delta(n, k)
    if case is Case.N0:
        # t_1 in {0, 1}
        return 1, 0, 0
    if case is Case.K1:
        # t_n = t_(n+1) = 1 pins every other entry to 0, and t_n = 2 forces
        # t_(n+1) = 0
        return 3 << (n - 1), n - 1, 0
    if case is Case.KEQ_N:
        # t_(2n) = 1 leaves only t_1 in {0, 1} free
        return 1 << (m - 1), 1, 1
    if case is Case.KLT_N:
        # t_m = 1 forces t_n .. t_(n+k-1) = 0 and t_(n-1) <= 1, and
        # t_(n-1) = 1 then bounds the scalar of t_1 .. t_(n-2)
        return (1 << (m - 1)) + (1 << (n - 2)), n - 2, (1 << (n - 1)) - (1 << k) + 2
    # KGT_N: with all of the top n positions t_k .. t_(n+k-1) equal to 1
    # the scalar of t_1 .. t_(k-1) is bounded; a 2 in that block must not
    # be followed by all ones
    return ((1 << n) - 1) << (k - 1), k - 1, (1 << n) + n


def max_apery(n: int, k: int) -> int:
    """max(Ap(GT(n,k), s_0)): the case rule's top pattern plus one prefix.

    Under :func:`_rule` the largest Apery sequence is the pinned top pattern
    ``head`` (bit i-1 for t_i = 1), worth 2A*head - B*popcount(head), plus
    the skew-binary prefix t_1 .. t_last that solves P = bound.  With
    s_i = A*2^i - B and c = sum t_i the prefix is worth A*(P + c) - B*c,
    since sum t_i*2^i = P + c.
    """
    if case_of(n, k) is Case.EXCEPTION_1_2:
        return 74
    a, b = _affine(n, k)
    head, last, bound = _rule(n, k)
    t = coeff_solve(bound, last)
    if t is None:
        raise AssertionError(f"no prefix of length {last} solves P = {bound}")
    c = sum(t)
    return a * (2 * head + bound + c) - b * (head.bit_count() + c)


def frobenius_closed(n: int, k: int) -> int:
    """F(GT(n,k)) = max(Ap(GT(n,k), s_0)) - s_0."""
    return max_apery(n, k) - generator_at(n, k, 0)


def _subset_sums(vals: list[int]) -> list[int]:
    """sums[mask] = sum of vals[i] over the set bits of mask."""
    sums = [0]
    for v in vals:
        sums += [s + v for s in sums]
    return sums


def _fit_count(bound: int, first: int, last: int) -> int:
    """How many masks over positions first..last keep sum(2^i - 1) <= bound.

    The weights 2^i - 1 are superincreasing, so the sum grows with the mask
    and the masks that fit are 0 .. x.  A mask x weighs
    (x << first) - popcount(x), so x << first <= bound + width, and from
    there at most ceil(width / 2^first) steps down reach the largest x
    that fits.
    """
    if bound < 0:
        return 0
    width = max(last - first + 1, 0)
    x = min((1 << width) - 1, (bound + width) >> first)
    while (x << first) - x.bit_count() > bound:
        x -= 1
    return x + 1


def _apery_runs(n: int, k: int) -> list[tuple[int, int]]:
    """The Apery coefficient set of GT(n,k) as runs (j, count).

    A sequence is a mask of its 1-coefficients (bit i-1 for t_i) and the
    position j of its single 2, or j = 0 when it has none; a 2 at j forces
    zeros below it, so its mask is tail << j.  The rules of every case only
    cut off the largest tails, so the kept sequences with the 2 at j are
    exactly the tails 0 .. count-1.

    Under :func:`_rule` the tails with the 2 at j are the masks shifted
    down by j, so j + 1 .. last stay free, and the 2 itself takes
    2*(2^j - 1) of the bound.
    """
    if case_of(n, k) is Case.EXCEPTION_1_2:
        # 74 = 2*s_2 breaks the t_m <= 1 rule; the set is literal here
        return [(0, 4), (1, 2), (2, 1)]
    head, last, bound = _rule(n, k)
    return [(j, (head >> j) + _fit_count(bound - 2 * ((1 << j) - 1), j + 1, last))
            for j in range(n + delta(n, k))]


def _apery_listing(n: int, k: int, coded: bool = False) -> tuple[int, list, list | None]:
    """m, the Q-values of Ap(GT(n,k), s_0) ascending and, if ``coded``, the
    codes mask | (j << m) of their coefficient sequences in the same order.

    The subset sums grow with the mask (s_i > s_1 + ... + s_(i-1)), so each
    run comes out ascending and one sort merges the runs: an argsort when
    the codes must follow the values, else a plain sort.  The sorted values
    must be s_0, strictly ascending.
    """
    m = n + delta(n, k)
    a, b = _affine(n, k)
    svals = [(a << i) - b for i in range(1, m + 1)]
    sums = _subset_sums(svals)
    values, spans, codes = [], [], None
    for j, count in _apery_runs(n, k):
        run = sums[: count << j : 1 << j]
        values += map((2 * svals[j - 1]).__add__, run) if j else run
        spans.append(range(j << m, (j << m) + (count << j), 1 << j))
    if coded:
        order = sorted(range(len(values)), key=values.__getitem__)
        flat = [c for span in spans for c in span]
        values, codes = [values[i] for i in order], [flat[i] for i in order]
    else:
        values.sort()
    s0 = a - b
    if len(values) != s0 or not all(map(lt, values, values[1:])):
        raise AssertionError(f"closed Apery set for ({n},{k}) has {len(values)} values, "
                             f"expected {s0}")
    return m, values, codes


def apery_set_closed(n: int, k: int) -> list[int]:
    """Ap(GT(n,k), s_0) as a sorted list of s_0 distinct values."""
    return _apery_listing(n, k)[1]


def _bit_tuples(length: int) -> list[tuple[int, ...]]:
    """table[x] = (bit 0 of x, ..., bit length-1 of x)."""
    table = [()]
    for _ in range(length):
        table = [t + (0,) for t in table] + [t + (1,) for t in table]
    return table


def _apery_decoded(n: int, k: int, form, sep) -> tuple[list[int], list]:
    """Ap(GT(n,k), s_0) ascending and, in the same order, each value's
    coefficient sequence (t_1, ..., t_m) rendered as ``form(low) + sep +
    form(high)``, the low half t_1 .. t_h and the high half the rest.

    ``form`` maps a tuple of digits to the caller's form and runs once a
    half-table entry, never once a value; ``sep`` is left out when the
    low half is empty (m = 1).  Each value is two lookups and one ``+``.
    """
    m, values, codes = _apery_listing(n, k, coded=True)
    # decode each half of the mask by table; a table per position j of the
    # 2 puts the 2 into the half that holds it
    h = m // 2
    low_mask = (1 << h) - 1
    full = (1 << m) - 1

    def tables(half, offset, render):
        # per j = 0 .. m: the half rendered plain, or with the 2 at j
        plain = [render(t) for t in half]
        out = []
        for j in range(m + 1):
            i = j - 1 - offset
            out.append([render(t[:i] + (2,) + t[i + 1:]) for t in half]
                       if 0 <= i < len(half[0]) else plain)
        return out

    lows = tables(_bit_tuples(h), 0, lambda t: form(t) + sep if t else form(t))
    highs = tables(_bit_tuples(m - h), h, form)
    return values, [lows[c >> m][c & low_mask] + highs[c >> m][(c & full) >> h]
                    for c in codes]


def apery_coeffs(n: int, k: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """Ap(GT(n,k), s_0) as :func:`apery_set_closed` returns it, and in the
    same order each value's coefficient sequence (t_1, ..., t_m)."""
    return _apery_decoded(n, k, tuple, ())


def _popcount_step(pops: int, prev: int, count: int) -> int:
    """S(count) from pops = S(prev), S(c) the popcount sum over 0 <= x < c:
    S(2*prev) = 2*S(prev) + prev, as the x below 2*prev are 2y and 2y + 1
    for y < prev, and the x from 2*prev up to count are added, or those
    from count up to 2*prev taken off, one ``bit_count`` each."""
    pops = 2 * pops + prev
    if count >= 2 * prev:
        return pops + sum(x.bit_count() for x in range(2 * prev, count))
    return pops - sum(x.bit_count() for x in range(count, 2 * prev))


def genus_closed(n: int, k: int) -> int:
    """g(GT(n,k)) = (sum of Ap(GT(n,k), s_0))/s_0 - (s_0-1)/2 (Selmer), the
    sum taken in one pass over the runs; the division must be exact.

    The mask tail << j is worth 2A*2^j*tail - B*popcount(tail), so a run
    (j, count) sums to A*2^j*(count*(count-1) + c) - B*(S(count) + c), with
    c = 2*count for the 2 at j when j >= 1 and S(count) its popcount sum.
    From the top run down, count_j = 2*count_(j+1) + d with d in 0..2 on
    every point tried, so :func:`_popcount_step` chains the S, the A terms
    gather by Horner and the B terms by a sum: O(m) big-integer steps.
    """
    a, b = _affine(n, k)
    x = y = prev = pops = 0
    for j, count in reversed(_apery_runs(n, k)):
        pops = _popcount_step(pops, prev, count)
        twos = 2 * count if j else 0
        x = 2 * x + count * (count - 1) + twos
        y += pops + twos
        prev = count
    s0 = a - b
    q, r = divmod(2 * (a * x - b * y) - s0 * (s0 - 1), 2 * s0)
    if r != 0:
        raise AssertionError("genus division inexact")
    return q
