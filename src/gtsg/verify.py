"""Cross-verification of the closed forms against the generic oracle.

A grid point (n, k) matches when the closed-form Frobenius number, full
Apery set and genus agree with the oracle computed from the minimal
generating set, and when that generating set is a fixed point of the
oracle's minimal-generator reduction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import thabit

DEFAULT_S0_MAX = 200_000


@dataclass(frozen=True)
class Mismatch:
    field: str
    closed_value: str
    oracle_value: str


@dataclass(frozen=True)
class PointReport:
    n: int
    k: int
    s0: int
    mismatches: tuple[Mismatch, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class VerifyReport:
    points: list[PointReport] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def mismatched(self) -> list[PointReport]:
        return [p for p in self.points if not p.ok]

    @property
    def ok(self) -> bool:
        return not self.mismatched


def grid_points(n_max: int | None = None, k_max: int | None = None,
                s0_max: int = DEFAULT_S0_MAX) -> list[tuple[int, int]]:
    """All (n, k), k >= 1, with s_0 <= s0_max, ordered n asc then k asc.

    At n = 0 the smallest generator is 2 for every k, so the s_0 cap alone
    would make that row infinite; it is bounded by s_1 <= s0_max instead.
    """
    def within(n: int, k: int) -> bool:
        i = 1 if n == 0 else 0
        return thabit.generator_at(n, k, i) <= s0_max

    points = []
    n = 0
    while within(n, 1):
        if n_max is None or n <= n_max:
            k = 1
            while within(n, k):
                if k_max is None or k <= k_max:
                    points.append((n, k))
                k += 1
        n += 1
    return points


def _sizes(values: list[int]) -> str:
    return f"{len(values)} values, max {values[-1]}"


def _compare(field: str, closed, oracle, show=str) -> Mismatch | None:
    """A Mismatch when ``closed()`` differs from ``oracle``, or when it fails
    its own check: a closed form raises AssertionError then, and the message
    stands as the closed value.  None when they agree."""
    try:
        value = closed()
    except AssertionError as exc:
        return Mismatch(field, str(exc), show(oracle))
    if value != oracle:
        return Mismatch(field, show(value), show(oracle))
    return None


def verify_point(n: int, k: int) -> PointReport:
    """Compare every closed form at one grid point against the oracle."""
    gens = thabit.minimal_generating_set(n, k)
    s0 = gens.gens[0]
    found = [
        _compare("frobenius", lambda: thabit.frobenius_closed(n, k), gens.frobenius()),
        _compare("apery_set", lambda: thabit.apery_set_closed(n, k),
                 sorted(gens.apery_set(s0).w), _sizes),
        _compare("genus", lambda: thabit.genus_closed(n, k), gens.genus()),
    ]

    reduced = gens.minimal_generators()
    if reduced.gens != gens.gens:
        found.append(Mismatch("minimal_generators", str(gens.gens), str(reduced.gens)))

    return PointReport(n, k, s0, tuple(m for m in found if m is not None))


def verify_grid(n_max: int | None = None, k_max: int | None = None,
                s0_max: int = DEFAULT_S0_MAX, jobs: int = 1) -> VerifyReport:
    """Run :func:`verify_point` over the whole grid.

    The report order is always n asc, k asc, independent of ``jobs``.
    Raises ValueError when ``jobs`` < 1 or the grid has no points, so that
    an empty sweep never reads as a pass.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    points = grid_points(n_max, k_max, s0_max)
    if not points:
        raise ValueError("the grid has no points; raise --s0-max or the n/k limits")
    workers = min(jobs, len(points), os.cpu_count() or 1)
    if workers > 1:
        # imported here, not at the top: it loads multiprocessing, which
        # every process that imports gtsg would otherwise pay for
        from concurrent.futures import ProcessPoolExecutor
        ns, ks = zip(*points)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(verify_point, ns, ks, chunksize=4))
    else:
        reports = [verify_point(n, k) for n, k in points]
    return VerifyReport(reports)
