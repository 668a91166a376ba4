"""Generic numerical-semigroup computations.

Everything here is formula-free: membership, Apery sets, Frobenius number,
genus and minimal generators are computed from the generator list alone, so
this module doubles as the ground-truth oracle for the closed forms in
``gtsg.thabit``.

All values are plain Python ints (arbitrary precision).
"""

from __future__ import annotations

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

    def apery_set(self, x: int | None = None) -> AperyTable:
        """Apery table of S with respect to x (default: smallest generator).

        Built by the round-robin algorithm (see ``_apery_w``): one lap
        round the residues mod x per generator.
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
    """Least element of <gens + {x}> in each residue class mod x.

    When x itself belongs to the semigroup generated by ``gens`` this is its
    Apery table.  Built by the round-robin algorithm of Boecker and Liptak,
    *A fast and simple algorithm for the money changing problem*,
    Algorithmica 48 (2007): w starts as the table of <x> and takes in one
    generator b at a time, in ascending order.  Adding b joins the residues
    into gcd(b, x) cycles r -> r + b (mod x); one lap round each cycle from
    its least entry, carrying n = min(n + b, w[r]), gives the table of the
    larger semigroup.
    """
    # every entry is a sum of at most x - 1 generators, so none reaches this
    inf = x * max(gens)
    w = [inf] * x
    w[0] = 0
    for b in sorted(gens):
        bm = b % x
        # b = 0 (mod x), or b already in the semigroup: nothing to relax
        if bm == 0 or w[bm] <= b:
            continue
        d = gcd(bm, x)
        step = bm - x
        for p in range(d):
            if p:
                cycle = w[p::d]
                n = min(cycle)
                if n == inf:
                    continue
                r = p + cycle.index(n) * d
            else:
                # w[0] = 0 is the least entry of the cycle through 0
                n = r = 0
            for _ in range(x // d - 1):
                r += step
                if r < 0:
                    r += x
                n += b
                if n < w[r]:
                    w[r] = n
                else:
                    n = w[r]
    # gcd(gens) = 1 makes every residue reachable
    assert inf not in w
    return tuple(w)
