"""Generic numerical-semigroup computations.

Everything here is formula-free: membership, Apery sets, Frobenius number,
genus and minimal generators are computed from the generator list alone, so
this module doubles as the ground-truth oracle for the closed forms in
``gtsg.thabit``.

All values are plain Python ints (arbitrary precision).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from math import gcd


class SemigroupError(ValueError):
    """Base class for invalid semigroup inputs."""


class EmptyInput(SemigroupError):
    """Generator list empty or contains no positive entry."""


class GcdNotOne(SemigroupError):
    """gcd of the generators is not 1, so the complement is infinite."""


class NotMember(SemigroupError):
    """Requested Apery modulus is not an element of the semigroup."""


class ZeroModulus(SemigroupError):
    """Apery set is undefined for x = 0."""


@dataclass(frozen=True)
class AperyTable:
    """Least semigroup element per residue class mod ``modulus``.

    ``w[r]`` is the least element of S congruent to r; w[0] = 0.
    """

    modulus: int
    w: tuple[int, ...]


@dataclass(frozen=True)
class Semigroup:
    """A numerical semigroup given by a normalized generator tuple.

    Generators are deduplicated, sorted ascending and have gcd 1.
    Instances are immutable; build them with :func:`make_semigroup`.
    """

    gens: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return self.gens[0]

    def apery_set(self, x: int | None = None) -> AperyTable:
        """Apery table of S with respect to x (default: smallest generator).

        Computed as single-source shortest paths on the residue graph:
        nodes 0..x-1, one edge r -> (r+g) mod x of weight g per generator.
        """
        if x is None:
            x = self.gens[0]
        if x == 0:
            raise ZeroModulus("Apery set requires x >= 1")
        if not self.is_member(x):
            raise NotMember(f"{x} is not an element of <{self.gens}>")
        return AperyTable(x, _apery_w(self.gens, x))

    def is_member(self, x: int) -> bool:
        """True iff x is a nonnegative integer combination of the generators."""
        if x < 0:
            return False
        m = self.gens[0]
        return x >= _apery_w(self.gens, m)[x % m]

    def frobenius(self) -> int:
        """Largest integer not in S; -1 when S is all of the naturals."""
        m = self.gens[0]
        return max(_apery_w(self.gens, m)) - m

    def genus(self) -> int:
        """Number of nonnegative integers missing from S.

        Uses g(S) = (sum of the Apery elements)/x - (x-1)/2 with x the
        smallest generator; the division is checked to be exact.
        """
        m = self.gens[0]
        total = sum(_apery_w(self.gens, m))
        num = 2 * total - m * (m - 1)
        q, r = divmod(num, 2 * m)
        assert r == 0, "genus formula did not divide exactly"
        return q

    def gaps(self) -> list[int]:
        """All nonnegative integers not in S, ascending."""
        return [x for x in range(self.frobenius() + 1) if not self.is_member(x)]

    def minimal_generators(self) -> "Semigroup":
        """The unique minimal system of generators.

        A generator g is redundant iff it splits as a + b with a, b nonzero
        elements of S, which (generators being deduplicated) happens iff
        g - h is a nonzero element for some smaller generator h.
        """
        kept = tuple(
            g
            for g in self.gens
            if not any(h < g and self.is_member(g - h) for h in self.gens)
        )
        return Semigroup(kept)


def make_semigroup(gens) -> Semigroup:
    """Validate, deduplicate and sort a generator list.

    Raises EmptyInput if no positive generator is given and GcdNotOne if the
    generators have a common divisor > 1.
    """
    cleaned = sorted(set(int(g) for g in gens))
    if not cleaned:
        raise EmptyInput("at least one generator is required")
    if cleaned[0] < 1:
        raise EmptyInput("generators must be >= 1")
    g = 0
    for a in cleaned:
        g = gcd(g, a)
    if g != 1:
        raise GcdNotOne(f"gcd of generators is {g}, not 1")
    return Semigroup(tuple(cleaned))


# one table: every caller is done with a table before it asks for another
@lru_cache(maxsize=1)
def _apery_w(gens: tuple[int, ...], x: int) -> tuple[int, ...]:
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
