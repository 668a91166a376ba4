"""Seeded inputs for each workload: one round of ``gtsg`` commands.

A run repeats the same round until its time is up, so every figure is a
rate over whole rounds.  Each round has a fixed make-up (how many commands
of each kind, at which size class and in which format); the seed only picks
the points and generator lists inside that make-up, so the amount of work
in a round barely depends on the seed.  The program receives only the
generated command lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from reference import INT64_SAFE, gcd_all, gt_generator

VERIFY_S0_MAX = 60_000
GENUS_S0_MAX = 200_000      # info points at or below this have their genus enumerated
QUERY_NK_MAX = 800          # closed-form queries stay below the recursion fault


@dataclass
class Command:
    argv: list[str]
    kind: str               # verify | apery | frobenius | info | oracle
    work: int               # units of work the command completes
    params: dict = field(default_factory=dict)
    fault: str | None = None  # the known fault this command hits today


def grid(s0_max: int) -> list[tuple[int, int]]:
    """Every (n, k) with s_0 <= s0_max, n asc then k asc; the n = 0 row,
    whose s_0 is always 2, is bounded by s_1 instead."""
    def within(n, k):
        return gt_generator(n, k, 1 if n == 0 else 0) <= s0_max

    points = []
    n = 0
    while within(n, 1):
        k = 1
        while within(n, k):
            points.append((n, k))
            k += 1
        n += 1
    return points


def verify_sweep(seed: int) -> list[Command]:
    # The whole grid is the input, so the seed changes nothing here.
    points = grid(VERIFY_S0_MAX)
    work = sum(gt_generator(n, k, 0) for n, k in points)
    argv = ["verify", "--jobs", "2", "--s0-max", str(VERIFY_S0_MAX)]
    return [Command(argv, "verify", work, {"s0_max": VERIFY_S0_MAX})]


def _nk_argv(cmd: str, n: int, k: int, fmt: str, *extra: str) -> list[str]:
    return [cmd, "--n", str(n), "--k", str(k), "--format", fmt, *extra]


# Candidate points of the apery slots, each group in a narrow s_0 band so
# that a slot costs about the same whichever point the seed picks.  A k>n
# point with small n costs up to twice as much per value as its neighbours,
# so the one such point, GT(1,14), has a slot of its own.
KLT_17K = ((8, 6), (9, 5), (10, 4), (11, 3))            # s_0 16577 .. 18425
KGT_16K = ((5, 9), (6, 8))                              # 15905, 16193
KLT_34K = ((8, 7), (9, 6), (10, 5), (11, 4), (12, 3))   # 32897 .. 36857
KGT_32K = ((5, 10), (6, 9), (7, 8))                     # 31777 .. 32641
KLT_134K = ((9, 8), (10, 7), (11, 6), (12, 5), (13, 4))  # 131329 .. 139249

# (points, format, --with-coeffs).  The slots cover the K1, k<n, k=n and
# k>n branches and every format with and without coefficients.  The largest
# memory user, GT(8,8) as json with coefficients, is the same for every seed.
APERY_SLOTS = [
    (((12, 1),), "text", True),
    (((7, 7),), "csv", False),
    (KLT_17K, "json", False),
    (((1, 14),), "csv", True),
    (KLT_17K, "text", False),
    (KGT_16K, "json", True),
    (((13, 1),), "csv", True),
    (((8, 8),), "json", True),
    (KLT_34K, "text", False),
    (KGT_32K, "json", False),
    (KLT_134K, "text", False),
]


def apery_listing(seed: int) -> list[Command]:
    rng = random.Random(f"apery-listing/{seed}")
    cmds = []
    for points, fmt, coeffs in APERY_SLOTS:
        n, k = rng.choice(points)
        extra = ["--with-coeffs"] if coeffs else []
        s0 = gt_generator(n, k, 0)
        cmds.append(Command(_nk_argv("apery", n, k, fmt, *extra), "apery", s0,
                            {"n": n, "k": k, "format": fmt, "coeffs": coeffs}))
    return cmds


# Commands that hit the recursion fault of the closed forms: the k < n and
# k > n branches solve for the coefficient prefix by a recursion that fails
# once it passes about 990 levels, as it does at each of these points.  They
# do not depend on the seed.
FAULT_QUERIES = [
    ("frobenius", 3, 2000),
    ("info", 2000, 1500),
    ("frobenius", 1500, 700),
    ("info", 7, 1700),
]

FORMATS = ("text", "json", "csv")


def _query_nk(rng: random.Random, case: str, u: float) -> tuple[int, int]:
    """(n, k) in one branch; u in [0, 1) places the size along its range,
    so that a group of queries can spread evenly over the sizes."""
    top = QUERY_NK_MAX

    def scale(lo, hi):
        return lo + int(u * (hi - lo + 1))

    if case == "N0":
        return 0, scale(1, top)
    if case == "K1":
        return scale(1, top), 1
    if case == "K2":
        return scale(3, top), 2
    if case == "KEQ_N":
        n = scale(2, top)
        return n, n
    if case == "KLT_N":
        n = scale(4, top)
        return n, rng.randint(3, n - 1)
    k = scale(3, top)                   # KGT_N
    return rng.randint(1, k - 1), k


def _spread(rng: random.Random, count: int, lo: float = 0.0) -> list[float]:
    """One random point in each of ``count`` equal slices of [lo, 1)."""
    return [lo + (1 - lo) * (i + rng.random()) / count for i in range(count)]


# Sizes of the info queries whose genus is enumerated: four points in each
# narrow s_0 band.
GENUS_BANDS = [(0, 1_000), (1_000, 10_000), (15_000, 20_000), (60_000, 70_000),
               (127_000, 140_000)]


def closed_form_queries(seed: int) -> list[Command]:
    rng = random.Random(f"closed-form-queries/{seed}")
    cmds = []

    def add(cmd, n, k, fmt, fault=None):
        cmds.append(Command(_nk_argv(cmd, n, k, fmt), cmd, 1,
                            {"n": n, "k": k, "format": fmt}, fault))

    # frobenius: 30 queries per branch, spread over n and k up to 800
    for case in ("N0", "K1", "K2", "KLT_N", "KEQ_N", "KGT_N"):
        for i, u in enumerate(_spread(rng, 30)):
            add("frobenius", *_query_nk(rng, case, u), FORMATS[i % 3])
    # info above the enumeration cap: u >= 0.03 keeps n + k >= 24, s_0 > 10^6
    for case in ("K1", "K2", "KLT_N", "KEQ_N", "KGT_N"):
        for i, u in enumerate(_spread(rng, 16, lo=0.03)):
            n, k = _query_nk(rng, case, u)
            assert gt_generator(n, k, 0) > 10**6
            add("info", n, k, FORMATS[i % 3])
    points = grid(GENUS_S0_MAX)
    for lo, hi in GENUS_BANDS:
        band = [(n, k) for n, k in points if n > 0 and lo < gt_generator(n, k, 0) <= hi]
        for i in range(4):
            add("info", *rng.choice(band), FORMATS[i % 3])
    for i, (cmd, n, k) in enumerate(FAULT_QUERIES):
        add(cmd, n, k, FORMATS[i % 3], fault="RecursionError")
    rng.shuffle(cmds)
    return cmds


ORACLE_SIZES = [1_000, 1_620, 2_620, 4_240, 6_870, 11_100, 18_000, 30_000]
ORACLE_LENGTHS = [2, 8, 14, 20]
ORACLE_KINDS = ["apery", "frobenius", "genus", "membership"]
ORACLE_NARROW_LENGTH = 8    # this list in each size class stays below 2^62
ORACLE_LISTS_PER_SLOT = 2


def _oracle_gens(rng: random.Random, m: int, length: int, wide: bool) -> list[int]:
    """A generator list with smallest element m and gcd 1.  A wide list has
    m * max(gens) >= 2^62, a narrow one stays below 2^61."""
    while True:
        if wide:
            top = rng.randrange(INT64_SAFE // m + 1, 4 * INT64_SAFE // m)
        else:
            top = rng.randrange(2**30, INT64_SAFE // (2 * m))
        gens = [m, top] + [rng.randrange(m + 1, top) for _ in range(length - 2)]
        if len(set(gens)) == length and gcd_all(gens) == 1:
            return sorted(gens)


def oracle_generic(seed: int) -> list[Command]:
    # The kind and the format of each command follow its place in the
    # round, not the seed: an apery listing costs more output than a
    # membership test, so letting the seed move it would move the figures.
    rng = random.Random(f"oracle-generic/{seed}")
    cmds = []
    seen = set()
    for copy in range(ORACLE_LISTS_PER_SLOT):
        for level, size in enumerate(ORACLE_SIZES):
            for j, length in enumerate(ORACLE_LENGTHS):
                place = copy + level + j
                what = ORACLE_KINDS[place % len(ORACLE_KINDS)]
                fmt = FORMATS[(place + copy) % len(FORMATS)]
                m = round(size * rng.uniform(0.95, 1.05))
                while True:
                    gens = _oracle_gens(rng, m, length, length != ORACLE_NARROW_LENGTH)
                    if tuple(gens) not in seen:
                        seen.add(tuple(gens))
                        break
                argv = ["oracle", what, "--gens", ",".join(map(str, gens)), "--format", fmt]
                params = {"what": what, "gens": gens, "format": fmt}
                if what == "membership":
                    params["x"] = rng.randrange(0, 4 * gens[1])
                    argv += ["--x", str(params["x"])]
                cmds.append(Command(argv, "oracle", m, params))
    return cmds


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "apery-listing": apery_listing,
    "closed-form-queries": closed_form_queries,
    "oracle-generic": oracle_generic,
}
