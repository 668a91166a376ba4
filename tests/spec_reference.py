"""Spec-literal forms of the GT(n, k) statements, as the tests' reference.

Every sequence over {0, 1, 2} obeying the 2-forces-earlier-zeros rule is
walked as a tuple and kept or dropped by the paper's per-case predicates.
``gtsg.thabit`` enumerates the same set as runs of bitmasks; the tests
check the two against each other.

The genus is Selmer's formula applied to the listed Apery values.  The
maximal Apery element is written out as its full coefficient sequence
and summed term by term, where ``gtsg.thabit`` reads it off the three
numbers of its one case rule; the k = 2 Frobenius formula and the k < n
shortcut are kept here as the paper states them.

The generic oracle's Apery table is kept here as Dijkstra's shortest
paths on the residue graph (Nijenhuis, Amer. Math. Monthly 1979), the
algorithm ``gtsg.oracle`` used before its round robin.

Also kept here: the Q-value of a coefficient sequence, summed generator
by generator; the skew-binary greedy that visits every position from the
top, which ``gtsg.thabit.coeff_solve`` shortcuts by runs of ones; and the
gaps of a semigroup, listed by membership tests up to its Frobenius
number.

The Apery runs are kept as one loop per case, the form ``gtsg.thabit``
had before its one run rule, with the greedy fit count that visits every
position and the popcount sum taken bit by bit.  The genus is also kept
as ``gtsg.thabit`` took it before it chained the runs' popcount sums:
each run summed on its own, with a popcount sum that halves its count.

``_jsonify`` is the JSON form ``gtsg.cli`` dumped through the json module
before it wrote JSON itself: every int (not bool) turned into its decimal
string, and tuples into lists.
"""

from __future__ import annotations

import heapq
from itertools import product
from typing import Iterator

from gtsg.thabit import Case, _apery_runs, case_of, coeff_solve, delta, generator_at


def coeff_value(n: int, k: int, t) -> int:
    """Q = t_1*s_1 + ... + t_m*s_m for a full-length coefficient sequence."""
    t = tuple(t)
    m = n + delta(n, k)
    if len(t) != m:
        raise ValueError(f"expected {m} coefficients, got {len(t)}")
    return sum(ti * generator_at(n, k, i) for i, ti in enumerate(t, start=1))


def coeff_solve_scan(target: int, length: int) -> tuple[int, ...] | None:
    """``coeff_solve`` as a greedy that visits every position from the top,
    shifting a ``length``-bit weight down one bit at each."""
    t = [0] * length
    x = target
    w = (1 << length) - 1                       # weight of position length
    for i in range(length - 1, -1, -1):
        if x == 2 * w:
            # a 2 forces zeros below it
            t[i] = 2
            x = 0
            break
        if x >= w:
            t[i] = 1
            x -= w
        w >>= 1
    return tuple(t) if x == 0 else None


def gaps(S) -> list[int]:
    """All nonnegative integers not in the semigroup S, ascending."""
    return [x for x in range(S.frobenius() + 1) if not S.is_member(x)]


def _scalar(prefix) -> int:
    """P = sum t_i * (2^i - 1) over a coefficient prefix."""
    return sum(ti * (2**i - 1) for i, ti in enumerate(prefix, start=1))


def iter_valid_sequences(length: int, last_two_ok: bool = False) -> Iterator[tuple[int, ...]]:
    """All sequences over {0,1,2} obeying the 2-forces-earlier-zeros rule.

    With last_two_ok=False the final coefficient is restricted to {0,1},
    matching full-length Apery coefficient sequences; prefixes used in
    scalar equations allow a trailing 2.
    """
    if length == 0:
        yield ()
        return
    for bits in product((0, 1), repeat=length):
        yield bits
    top = length if last_two_ok else length - 1
    for j in range(1, top + 1):
        for tail in product((0, 1), repeat=length - j):
            yield (0,) * (j - 1) + (2,) + tail


def _keep_k1(t: tuple[int, ...], n: int) -> bool:
    # length n+1; extra rules on the top two coefficients
    if t[n - 1] == 2 and t[n] == 1:
        return False
    if t[n - 1] == 1 and t[n] == 1 and any(t[: n - 1]):
        return False
    return True


def _keep_klt(t: tuple[int, ...], n: int, k: int) -> bool:
    # length n+k; constraints fire only when the top coefficient is 1
    if t[-1] != 1:
        return True
    if any(t[n - 1 : n + k - 1]):
        return False
    if t[n - 2] == 2:
        return False
    if t[n - 2] == 1 and _scalar(t[: n - 2]) > 2 ** (n - 1) - 2**k + 2:
        return False
    return True


def _keep_keq(t: tuple[int, ...], n: int) -> bool:
    # length 2n; top coefficient 1 pins everything except t_1 in {0,1}
    if t[-1] != 1:
        return True
    return t[0] != 2 and not any(t[1 : 2 * n - 1])


def _keep_kgt(t: tuple[int, ...], n: int, k: int) -> bool:
    # length n+k-1; the top n positions are t_k..t_(n+k-1)
    top = t[k - 1 :]
    if all(v == 1 for v in top):
        return _scalar(t[: k - 1]) <= 2**n + n
    for i, v in enumerate(top):
        if v == 2:
            # a 2 inside the top block must not be followed by all ones
            return not all(x == 1 for x in top[i + 1 :])
    return True


def iter_apery_coeffs(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Coefficient sequences whose Q-values enumerate Ap(GT(n,k), s_0)."""
    case = case_of(n, k)
    if case is Case.N0:
        yield (0,)
        yield (1,)
        return
    if case is Case.EXCEPTION_1_2:
        # 74 = 2*s_2 breaks the t_m <= 1 rule; the set is literal here
        yield from ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2))
        return
    m = n + delta(n, k)
    if case is Case.K1:
        keep = lambda t: _keep_k1(t, n)
    elif case is Case.KLT_N:
        keep = lambda t: _keep_klt(t, n, k)
    elif case is Case.KEQ_N:
        keep = lambda t: _keep_keq(t, n)
    else:
        keep = lambda t: _keep_kgt(t, n, k)
    for t in iter_valid_sequences(m):
        if keep(t):
            yield t


def sorted_apery_rows(n: int, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """(Q-value, sequence) for every reference sequence, by value."""
    return sorted((coeff_value(n, k, t), t) for t in iter_apery_coeffs(n, k))


def max_apery_coeffs(n: int, k: int) -> tuple[int, ...]:
    """The full coefficient sequence of max(Ap(GT(n,k), s_0)), per case.

    The prefixes of the k < n and k > n cases come from ``coeff_solve``,
    which the tests check on its own by round trips.
    """
    case = case_of(n, k)
    if case is Case.N0:
        return (1,)
    if case is Case.EXCEPTION_1_2:
        return (0, 2)                           # 74 = 2*s_2
    if case is Case.K1:
        return (0,) * (n - 1) + (1, 1)          # s_n + s_(n+1)
    if case is Case.KEQ_N:
        return (1,) + (0,) * (2 * n - 2) + (1,)  # s_1 + s_(2n)
    if case is Case.KLT_N:
        # prefix solving P_(n-2) = 2^(n-1) - 2^k + 2, then s_(n-1) + s_(n+k)
        prefix = coeff_solve(2 ** (n - 1) - 2**k + 2, n - 2)
        return prefix + (1,) + (0,) * k + (1,)
    # KGT_N: prefix solving P_(k-1) = 2^n + n, then s_k + ... + s_(n+k-1)
    return coeff_solve(2**n + n, k - 1) + (1,) * n


def max_apery_term_by_term(n: int, k: int) -> int:
    """max(Ap(GT(n,k), s_0)) as sum t_i*s_i, one generator at a time."""
    return coeff_value(n, k, max_apery_coeffs(n, k))


def frobenius_k2_closed(n: int) -> int:
    """F(GT(n,2)) = 25*2^(2n) - 5*2^n - 9, valid for n >= 3.

    Derived from the k < n branch with k = 2, where the scalar equation
    P_(n-2) = 2^(n-1) - 2 has the unique solution t_(n-2) = 2, so
    F = 2*s_(n-2) + s_(n-1) + s_(n+2) - s_0.  The formula is sometimes
    quoted with leading constant 85*2^(2n-2) instead of 100*2^(2n-2);
    expanding the generator sum shows 100 is correct, and the oracle sweep
    confirms it.  n = 2 is excluded because GT(2,2) falls in the k = n
    branch (F = s_1 + s_4 - s_0 = 337, matching neither constant).
    """
    if n < 3:
        raise ValueError(f"closed k=2 formula needs n >= 3, got {n}")
    return 25 * 2 ** (2 * n) - 5 * 2**n - 9


def max_apery_fast_kltn(n: int, k: int) -> int:
    """Shortcut for max(Ap) when 2 <= k < n <= 2^k + k - 3.

    Uses the forced block t_k = ... = t_(n-1) = 1 and the smaller scalar
    equation P_(k-1) = n + 1 - k.
    """
    if not (2 <= k < n):
        raise ValueError(f"requires 2 <= k < n, got ({n}, {k})")
    if n > 2**k + k - 3:
        raise ValueError(f"requires n <= 2^k + k - 3, got n={n}, k={k}")
    t = coeff_solve(n + 1 - k, k - 1)
    assert t is not None
    return coeff_value(n, k, t + (1,) * (n - k) + (0,) * k + (1,))


def genus_from_apery(s0: int, values) -> int:
    """g = (sum of Apery values)/s0 - (s0-1)/2, checked to divide exactly."""
    num = 2 * sum(values) - s0 * (s0 - 1)
    q, r = divmod(num, 2 * s0)
    if r != 0:
        raise AssertionError("genus division inexact")
    return q


def apery_w_dijkstra(gens, x: int) -> tuple[int, ...]:
    """Shortest-path distances on the residue graph mod x.

    dist[r] is the least element of <gens + {x}> congruent to r mod x; when
    x itself belongs to the semigroup this is the Apery table of the
    semigroup generated by ``gens``.
    """
    inf = float("inf")
    dist = [inf] * x
    dist[0] = 0
    heap = [(0, 0)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, r = pop(heap)
        if d > dist[r]:
            continue
        for g in gens:
            r2 = (r + g) % x
            nd = d + g
            if nd < dist[r2]:
                dist[r2] = nd
                push(heap, (nd, r2))
    # gcd(gens) = 1 makes every residue reachable
    assert all(d != inf for d in dist)
    return tuple(dist)


def fit_count_scan(bound: int, first: int, last: int) -> int:
    """How many masks over positions first..last keep sum(2^i - 1) <= bound.

    The weights 2^i - 1 are superincreasing, so the sum grows with the mask
    and the masks that fit are 0 .. x, with x found greedily from the top.
    """
    if bound < 0:
        return 0
    x = 0
    for i in range(last, first - 1, -1):
        w = 2**i - 1
        if w <= bound:
            bound -= w
            x |= 1 << (i - first)
    return x + 1


def apery_runs_per_case(n: int, k: int) -> list[tuple[int, int]]:
    """The Apery coefficient set of GT(n,k) as runs (j, count).

    A sequence is a mask of its 1-coefficients (bit i-1 for t_i) and the
    position j of its single 2, or j = 0 when it has none; a 2 at j forces
    zeros below it, so its mask is tail << j.  The rules of every case only
    cut off the largest tails, so the kept sequences with the 2 at j are
    exactly the tails 0 .. count-1.
    """
    case = case_of(n, k)
    if case is Case.N0:
        return [(0, 2)]
    if case is Case.EXCEPTION_1_2:
        # 74 = 2*s_2 breaks the t_m <= 1 rule; the set is literal here
        return [(0, 4), (1, 2), (2, 1)]
    m = n + delta(n, k)
    top = 1 << (m - 1)                          # bit of t_m
    if case is Case.K1:
        # t_n = t_(n+1) = 1 pins every other entry to 0, and t_n = 2 forces
        # t_(n+1) = 0
        return ([(0, (3 << (n - 1)) + 1)]
                + [(j, 3 << (n - 1 - j)) for j in range(1, n)] + [(n, 1)])
    if case is Case.KEQ_N:
        # t_(2n) = 1 leaves only t_1 in {0, 1} free
        return [(0, top + 2)] + [(j, top >> j) for j in range(1, m)]
    if case is Case.KLT_N:
        # t_m = 1 forces t_n .. t_(n+k-1) = 0 and t_(n-1) <= 1, and
        # t_(n-1) = 1 then bounds the scalar of t_1 .. t_(n-2)
        bound = 2 ** (n - 1) - 2**k + 2
        runs = [(0, top + (1 << (n - 2)) + fit_count_scan(bound, 1, n - 2))]
        for j in range(1, m):
            count = top >> j
            if j <= n - 2:
                extra = 2 * (2**j - 1)
                count += (1 << (n - 2 - j)) + fit_count_scan(bound - extra, j + 1, n - 2)
            runs.append((j, count))
        return runs
    # KGT_N: with all of the top n positions t_k .. t_(n+k-1) equal to 1 the
    # scalar of t_1 .. t_(k-1) is bounded; a 2 in that block must not be
    # followed by all ones
    bound = 2**n + n
    block = ((1 << n) - 1) << (k - 1)
    runs = [(0, block + fit_count_scan(bound, 1, k - 1))]
    for j in range(1, m):
        if j < k:
            extra = 2 * (2**j - 1)
            runs.append((j, (block >> j) + fit_count_scan(bound - extra, j + 1, k - 1)))
        else:
            runs.append((j, (1 << (m - j)) - 1))
    return runs


def popcount_sum_by_bits(count: int) -> int:
    """sum of popcount(x) over 0 <= x < count.

    Split [0, count) at each set bit b of count: the x that match count
    above b and have a 0 at b are 2^b numbers, each with the ``ones`` set
    bits of count above b and b free bits below, so their popcounts sum to
    ones*2^b + b*2^(b-1).
    """
    total = ones = 0
    for b in range(count.bit_length() - 1, -1, -1):
        if count >> b & 1:
            total += (ones << b) + (b << b >> 1)
            ones += 1
    return total


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


def genus_per_run(n: int, k: int) -> int:
    """g(GT(n,k)) = (sum of Ap(GT(n,k), s_0))/s_0 - (s_0-1)/2 (Selmer), the
    sum taken run by run; the division must be exact.

    The mask tail << j is worth 2A*2^j*tail - B*popcount(tail), so a run
    (j, count) sums to A*2^j*count*(count-1) - B*(popcount sum below count)
    plus count*2*s_j when j >= 1.
    """
    b = (1 << k) - 1
    a = generator_at(n, k, 0) + b
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


def _jsonify(obj):
    """Recursively turn ints into decimal strings for lossless JSON."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        return {key: _jsonify(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(value) for value in obj]
    return obj
