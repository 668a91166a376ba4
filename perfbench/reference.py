"""Reference values computed apart from the gtsg package.

Nothing here imports gtsg.  The GT(n, k) facts are the paper's statements
written out again: the generator formula, the minimal generating set
s_0 .. s_(n+delta), the literal Frobenius formulas of the k = 1, k = 2 and
k = n cases, and the max-Apery sums of the k < n and k > n cases, whose
coefficient prefix is found here by an iterative skew-binary conversion.
Generic semigroups are checked against a plain sieve where the numbers are
small and against a round-robin residue table (Boecker and Liptak,
Algorithmica 2007) where they are not.
"""

from __future__ import annotations

from math import gcd

INT64_SAFE = 2**62


def gt_generator(n: int, k: int, i: int) -> int:
    """s_i = (2^k + 1) * 2^(n + i) - (2^k - 1)."""
    return (2**k + 1) * 2 ** (n + i) - (2**k - 1)


def gt_top_index(n: int, k: int) -> int:
    """n + delta: the minimal generating set is s_0 .. s_(n + delta)."""
    if n == 0:
        return 1
    return n + (k if k <= n else k - 1)


def gt_generators(n: int, k: int) -> list[int]:
    return [gt_generator(n, k, i) for i in range(gt_top_index(n, k) + 1)]


def gt_case(n: int, k: int) -> str:
    """The branch name ``gtsg info`` prints for (n, k)."""
    if n == 0:
        return "N0"
    if k == 1:
        return "K1"
    if (n, k) == (1, 2):
        return "EXCEPTION_1_2"
    if k < n:
        return "KLT_N"
    if k == n:
        return "KEQ_N"
    return "KGT_N"


def skew_binary(target: int, length: int) -> list[int]:
    """Digits t_1..t_length over {0,1,2} with sum t_i*(2^i - 1) = target.

    Greedy from the top position; a 2 may only be the lowest nonzero digit.
    Raises ValueError when target is out of range for ``length`` digits.
    """
    if not 0 <= target <= 2 * (2**length - 1):
        raise ValueError(f"{target} has no {length}-digit skew-binary form")
    digits = [0] * length
    x = target
    for i in range(length, 0, -1):
        weight = 2**i - 1
        if x == 2 * weight:
            digits[i - 1] = 2
            x = 0
            break
        if x >= weight:
            digits[i - 1] = 1
            x -= weight
    if x:
        raise ValueError(f"{target} has no {length}-digit skew-binary form")
    return digits


def _generator_sum(n: int, k: int, lo: int, hi: int) -> int:
    """s_lo + ... + s_hi as a geometric sum."""
    return (2**k + 1) * 2**n * (2 ** (hi + 1) - 2**lo) - (hi - lo + 1) * (2**k - 1)


def _prefix_value(n: int, k: int, digits: list[int]) -> int:
    return sum(t * gt_generator(n, k, i) for i, t in enumerate(digits, 1) if t)


def max_apery_reference(n: int, k: int) -> int:
    """max Ap(GT(n, k), s_0) = F + s_0, from the paper's per-case formulas."""
    return frobenius_reference(n, k) + gt_generator(n, k, 0)


def frobenius_reference(n: int, k: int) -> int:
    """F(GT(n, k)) from the paper's literal formulas for each case."""
    s = lambda i: gt_generator(n, k, i)
    case = gt_case(n, k)
    if case == "N0":
        return s(1) - s(0)
    if case == "K1":
        return 9 * 2 ** (2 * n) - 3 * 2**n - 1
    if case == "EXCEPTION_1_2":
        return 2 * s(2) - s(0)
    if case == "KEQ_N":
        return s(1) + s(2 * n) - s(0)
    if case == "KLT_N":
        if k == 2:
            return 100 * 2 ** (2 * n - 2) - 5 * 2**n - 9
        digits = skew_binary(2 ** (n - 1) - 2**k + 2, n - 2)
        return _prefix_value(n, k, digits) + s(n - 1) + s(n + k) - s(0)
    digits = skew_binary(2**n + n, k - 1)
    return _prefix_value(n, k, digits) + _generator_sum(n, k, k, n + k - 1) - s(0)


def sieve_summary(gens) -> dict:
    """Apery set, Frobenius number and genus by a plain sieve.

    x is a member when x = 0 or x - g is a member for some generator g.
    The sieve stops after s_0 consecutive members, since every larger
    integer is then a member too.  Only for small numbers.
    """
    gens = sorted(set(gens))
    m = gens[0]
    member = bytearray()
    run, frob, x = 0, -1, 0
    while run < m:
        hit = x == 0 or any(g <= x and member[x - g] for g in gens)
        member.append(hit)
        if hit:
            run += 1
        else:
            run, frob = 0, x
        x += 1
    apery = {}
    for x, hit in enumerate(member):
        if hit and x % m not in apery:
            apery[x % m] = x
    return {
        "member": member,
        "apery": [apery[r] for r in range(m)],
        "frobenius": frob,
        "genus": member[: frob + 1].count(0),
    }


def apery_table(gens) -> list[int]:
    """w[r] = least element congruent to r mod s_0, by the round-robin
    algorithm: each generator relaxes the table along the cycles of
    r -> r + a mod s_0, starting each cycle at its least entry, as a
    min-plus prefix scan.  int64 while s_0 * max(gens) < 2^62, exact
    Python ints beyond that.
    """
    import numpy as np

    gens = sorted(set(gens))
    m = gens[0]
    wide = m * gens[-1] >= INT64_SAFE
    dtype = object if wide else np.int64
    inf = float("inf") if wide else INT64_SAFE
    w = np.full(m, inf, dtype=dtype)
    w[0] = 0
    for a in gens[1:]:
        d = gcd(a, m)
        length = m // d
        cycle = (np.arange(length, dtype=np.int64) * (a % m)) % m
        idx = (np.arange(d, dtype=np.int64)[:, None] + cycle[None, :]) % m
        start = np.argmin(w[idx], axis=1)
        turn = (np.arange(length)[None, :] + start[:, None]) % length
        order = np.take_along_axis(idx, turn, axis=1)
        steps = np.arange(length, dtype=dtype) * a
        w[order] = np.minimum.accumulate(w[order] - steps, axis=1) + steps
    if (w >= inf).any():
        raise ValueError("generators have a common divisor")
    return [int(x) for x in w]


def genus_from_table(m: int, table) -> int:
    """Selmer: g = sum(w)/m - (m-1)/2; raises if the division is inexact."""
    q, r = divmod(2 * sum(table) - m * (m - 1), 2 * m)
    if r:
        raise ValueError("Selmer sum does not divide")
    return q


def gcd_all(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, v)
    return g
