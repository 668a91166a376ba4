"""Closed forms for the semigroups generated by (2^k+1)*2^(n+i) - (2^k-1).

For parameters n >= 0, k >= 1 the family GT(n, k) has generators
s_i = (2^k+1)*2^(n+i) - (2^k-1).  This module provides the minimal
generating set, embedding dimension, the coefficient-set description of the
Apery set of s_0, the maximal Apery element, the Frobenius number and the
genus, all without enumerating semigroup elements.

With s_i = A*2^i - B, the maximal Apery element and the Frobenius number
take O(m) big-integer operations, m = n + delta, and never recurse: the
coefficient prefix they need is a greedy skew-binary conversion, and the
generator sums are geometric.  The genus applies Selmer's formula to the
Apery sum, taken run by run in closed form without listing the values.
Each case's Apery rule is three numbers of one run rule, so the m runs,
and the genus with them, cost O(m) big-integer operations.

:func:`generator_decimals` writes the generators in base 10 for output.
It steps s_(i+1) = 2*s_i + B in exact Decimal arithmetic, whose
arithmetic and ``str`` are linear in the digits, so printing all m + 1
generators never goes through CPython's quadratic int-to-str conversion.

Coefficient sequences (t_1, ..., t_m) over {0,1,2} encode the element
Q = t_1*s_1 + ... + t_m*s_m and the scalar P = sum t_i*(2^i - 1).  A
sequence is "valid" when t_m <= 1 and a 2 at position j forces zeros at all
positions before j; at most one 2 can occur.

One enumerator, :func:`_apery_entries`, lists the Apery coefficient set: a
sequence is the bitmask of its 1s and the position of its single 2, the
kept masks of each position form one run, and the values are read off a
subset-sum table.  :func:`apery_set_closed` sorts the values and
:func:`apery_coeffs` decodes the sequences in the same order.  The
spec-literal form, every valid tuple filtered by the per-case rules, is
kept in the test suite as the reference for this one.
"""

from __future__ import annotations

from enum import Enum

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


def generator_at(n: int, k: int, i: int) -> int:
    """s_i = (2^k + 1) * 2^(n+i) - (2^k - 1)."""
    _check_params(n, k)
    return (2**k + 1) * 2 ** (n + i) - (2**k - 1)


def _affine(n: int, k: int) -> tuple[int, int]:
    """(A, B) with s_i = A*2^i - B: A = (2^k+1)*2^n and B = 2^k - 1."""
    _check_params(n, k)
    return ((1 << k) + 1) << n, (1 << k) - 1


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

    The greedy starts at the bit length of the target and, after each
    digit it takes, jumps to the bit length of the remainder, so it makes
    at most two steps per nonzero digit, however long the prefix.
    """
    t = [0] * length
    x = target
    # position i weighs 2^i - 1, so no position above x's bit length fits
    i = min(length, x.bit_length())
    while x > 0 and i > 0:
        w = (1 << i) - 1
        if x == 2 * w:
            # a 2 forces zeros below it
            t[i - 1] = 2
            return tuple(t)
        if x >= w:
            t[i - 1] = 1
            x -= w
            i = min(i, x.bit_length() + 1)
        i -= 1
    return tuple(t) if x == 0 else None


def _prefix_sum(a: int, b: int, target: int, length: int) -> int:
    """sum t_i*s_i over the prefix solving P = target.

    With s_i = A*2^i - B and c = sum t_i this is A*(P + c) - B*c, since
    sum t_i*2^i = P + c.
    """
    t = coeff_solve(target, length)
    assert t is not None
    c = sum(t)
    return a * (target + c) - b * c


def _block_sum(a: int, b: int, lo: int, hi: int) -> int:
    """s_lo + ... + s_hi = A*(2^(hi+1) - 2^lo) - (hi-lo+1)*B."""
    return a * ((2 << hi) - (1 << lo)) - (hi - lo + 1) * b


def max_apery(n: int, k: int) -> int:
    """max(Ap(GT(n,k), s_0)) by the per-case closed form."""
    case = case_of(n, k)
    a, b = _affine(n, k)
    s = lambda i: (a << i) - b
    if case is Case.N0:
        return s(1)
    if case is Case.K1:
        return s(n) + s(n + 1)
    if case is Case.EXCEPTION_1_2:
        return 74
    if case is Case.KLT_N:
        return _prefix_sum(a, b, 2 ** (n - 1) - 2**k + 2, n - 2) + s(n - 1) + s(n + k)
    if case is Case.KEQ_N:
        return s(1) + s(2 * n)
    # KGT_N
    return _prefix_sum(a, b, 2**n + n, k - 1) + _block_sum(a, b, k, n + k - 1)


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

    Every case but (1, 2) is one rule in three numbers: the first ``head``
    masks lie below the case's pinned top pattern and are all kept, and
    past them come the masks with that pattern, kept while the scalar of
    t_1 .. t_last stays within ``bound``.  With the 2 at j the tails are
    the masks shifted down by j, so j + 1 .. last stay free, and the 2
    itself takes 2*(2^j - 1) of the bound.
    """
    case = case_of(n, k)
    if case is Case.EXCEPTION_1_2:
        # 74 = 2*s_2 breaks the t_m <= 1 rule; the set is literal here
        return [(0, 4), (1, 2), (2, 1)]
    m = n + delta(n, k)
    if case is Case.N0:
        # t_1 in {0, 1}
        head, last, bound = 1, 0, 0
    elif case is Case.K1:
        # t_n = t_(n+1) = 1 pins every other entry to 0, and t_n = 2 forces
        # t_(n+1) = 0
        head, last, bound = 3 << (n - 1), n - 1, 0
    elif case is Case.KEQ_N:
        # t_(2n) = 1 leaves only t_1 in {0, 1} free
        head, last, bound = 1 << (m - 1), 1, 1
    elif case is Case.KLT_N:
        # t_m = 1 forces t_n .. t_(n+k-1) = 0 and t_(n-1) <= 1, and
        # t_(n-1) = 1 then bounds the scalar of t_1 .. t_(n-2)
        head, last = (1 << (m - 1)) + (1 << (n - 2)), n - 2
        bound = (1 << (n - 1)) - (1 << k) + 2
    else:
        # KGT_N: with all of the top n positions t_k .. t_(n+k-1) equal to 1
        # the scalar of t_1 .. t_(k-1) is bounded; a 2 in that block must not
        # be followed by all ones
        head, last, bound = ((1 << n) - 1) << (k - 1), k - 1, (1 << n) + n
    return [(j, (head >> j) + _fit_count(bound - 2 * ((1 << j) - 1), j + 1, last))
            for j in range(m)]


def _apery_entries(n: int, k: int) -> tuple[int, list[tuple[list[int], range]]]:
    """m and, run by run, the Q-values of the Apery coefficient set and
    their codes mask | (j << m).

    Since s_i exceeds s_1 + ... + s_(i-1), the subset sums grow with the
    mask, so each run's values come out ascending and a sort only merges
    the runs.
    """
    m = n + delta(n, k)
    svals = [generator_at(n, k, i) for i in range(1, m + 1)]
    sums = _subset_sums(svals)
    entries = []
    for j, count in _apery_runs(n, k):
        step = 1 << j
        values = sums[: count * step : step]
        if j:
            base = 2 * svals[j - 1]
            values = [base + v for v in values]
        entries.append((values, range(j << m, (j << m) + count * step, step)))
    return m, entries


def apery_set_closed(n: int, k: int) -> list[int]:
    """Ap(GT(n,k), s_0) as a sorted list; its size must equal s_0."""
    values = []
    for run, _ in _apery_entries(n, k)[1]:
        values += run
    values.sort()
    s0 = generator_at(n, k, 0)
    if len(values) != s0 or len(set(values)) != s0:
        raise AssertionError(
            f"closed Apery set for ({n},{k}) has {len(values)} values, expected {s0}"
        )
    return values


def _bit_tuples(length: int) -> list[tuple[int, ...]]:
    """table[x] = (bit 0 of x, ..., bit length-1 of x)."""
    table = [()]
    for _ in range(length):
        table = [t + (0,) for t in table] + [t + (1,) for t in table]
    return table


def apery_coeffs(n: int, k: int) -> list[tuple[int, ...]]:
    """Coefficient sequences (t_1, ..., t_m) whose Q-values make up
    Ap(GT(n,k), s_0), in the order of :func:`apery_set_closed`."""
    m, entries = _apery_entries(n, k)
    values, codes = [], []
    for run, span in entries:
        values += run
        codes += span
    order = sorted(range(len(values)), key=values.__getitem__)
    # decode each half of the mask by table; a table per position of the 2
    # puts the 2 into the half that holds it
    h = m // 2
    low_mask = (1 << h) - 1
    full = (1 << m) - 1
    low, high = _bit_tuples(h), _bit_tuples(m - h)
    lows, highs = [low], [high]
    for j in range(1, m + 1):
        if j <= h:
            lows.append([t[: j - 1] + (2,) + t[j:] for t in low])
            highs.append(high)
        else:
            lows.append(low)
            highs.append([t[: j - 1 - h] + (2,) + t[j - h:] for t in high])
    coeffs = []
    for i in order:
        c = codes[i]
        j = c >> m
        coeffs.append(lows[j][c & low_mask] + highs[j][(c & full) >> h])
    return coeffs


def _popcount_sum(count: int) -> int:
    """sum of popcount(x) over 0 <= x < count.

    Split count = hi*2^h + lo at half its bit length: the x below hi*2^h
    are q*2^h + r for q < hi and r < 2^h, whose popcounts sum to
    2^h*S(hi) + hi*h*2^(h-1), and the x from hi*2^h on add
    lo*popcount(hi) + S(lo).
    """
    if count < 64:
        return sum(x.bit_count() for x in range(count))
    h = count.bit_length() >> 1
    hi, lo = count >> h, count & ((1 << h) - 1)
    return ((_popcount_sum(hi) << h) + (hi * h << h >> 1)
            + lo * hi.bit_count() + _popcount_sum(lo))


def genus_closed(n: int, k: int) -> int:
    """g(GT(n,k)) = (sum of Ap(GT(n,k), s_0))/s_0 - (s_0-1)/2 (Selmer), the
    sum taken run by run; the division must be exact.

    The mask tail << j is worth 2A*2^j*tail - B*popcount(tail), so a run
    (j, count) sums to A*2^j*count*(count-1) - B*(popcount sum below count)
    plus count*2*s_j when j >= 1.  Each of the m runs costs a few
    big-integer operations on m-bit numbers.
    """
    a, b = _affine(n, k)
    total = 0
    for j, count in _apery_runs(n, k):
        total += (a << j) * count * (count - 1) - b * _popcount_sum(count)
        if j:
            total += 2 * count * ((a << j) - b)
    s0 = a - b
    q, r = divmod(2 * total - s0 * (s0 - 1), 2 * s0)
    if r != 0:
        raise AssertionError("genus division inexact")
    return q
