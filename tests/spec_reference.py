"""The spec-literal Apery coefficient set of GT(n, k), as the tests' reference.

Every sequence over {0, 1, 2} obeying the 2-forces-earlier-zeros rule is
walked as a tuple and kept or dropped by the paper's per-case predicates.
``gtsg.thabit`` enumerates the same set as runs of bitmasks; the tests
check the two against each other.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from gtsg.thabit import Case, case_of, coeff_value, delta


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
