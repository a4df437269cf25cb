"""Permutation primitives.

Permutations on n points are plain tuples p of length n with p[i] the image
of point i. Products compose left to right: (a * b) applies a first, then b,
so i^(a*b) = b[a[i]]. Conjugation follows the same convention, x^g = g^-1 x g.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter


def identity(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product a*b, applying a first: the entries of b at the points of a."""
    return left_mul(a)(b)


def left_mul(a: tuple[int, ...]):
    """The map b -> a*b, one getter built once and applied to many b."""
    if len(a) < 2:
        # a getter of one point returns an entry, not a tuple
        return lambda b: tuple(b[x] for x in a)
    return itemgetter(*a)


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def conjugate(x: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """x^g = g^-1 * x * g."""
    out = [0] * len(x)
    for k in range(len(x)):
        out[g[k]] = g[x[k]]
    return tuple(out)


def is_perm(p) -> bool:
    return isinstance(p, tuple) and sorted(p) == list(range(len(p)))


def order(p: tuple[int, ...]) -> int:
    n = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        n = lcm(n, length)
    return n


def power(p: tuple[int, ...], k: int) -> tuple[int, ...]:
    if k < 0:
        return power(inverse(p), -k)
    out = identity(len(p))
    base = p
    while k:
        if k & 1:
            out = mul(out, base)
        base = mul(base, base)
        k >>= 1
    return out


def from_cycles(degree: int, cycles) -> tuple[int, ...]:
    """Build a permutation from disjoint cycles, e.g. [(0, 1, 2), (3, 4)]."""
    out = list(range(degree))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            out[pt] = cyc[(i + 1) % len(cyc)]
    return tuple(out)
