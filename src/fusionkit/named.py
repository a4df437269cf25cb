"""Standard groups as permutation groups, plus product constructions."""

from __future__ import annotations

import itertools
from math import prod

from . import perms
from .groups import FiniteGroup, GroupTooLarge, cayley_tree, hom_from_images, max_group_order


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return FiniteGroup(1, [], name="S1")
    gens = [perms.from_cycles(n, [(0, 1)]), perms.from_cycles(n, [tuple(range(n))])]
    return FiniteGroup(n, gens, name=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("n must be positive")
    if n < 3:
        return FiniteGroup(max(n, 1), [], name=f"A{n}")
    gens = [perms.from_cycles(n, [(0, 1, 2)])]
    if n % 2:
        gens.append(perms.from_cycles(n, [tuple(range(n))]))
    else:
        gens.append(perms.from_cycles(n, [tuple(range(1, n))]))
    return FiniteGroup(n, gens, name=f"A{n}")


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return FiniteGroup(1, [], name="C1")
    return FiniteGroup(
        n, [perms.from_cycles(n, [tuple(range(n))])], name=f"C{n}"
    )


def dihedral_group(order: int) -> FiniteGroup:
    """Dihedral group of the given order (order 2n acting on n points)."""
    if order < 2 or order % 2:
        raise ValueError("dihedral order must be an even integer >= 2")
    n = order // 2
    if n == 1:
        return FiniteGroup(2, [perms.from_cycles(2, [(0, 1)])], name="D2")
    if n == 2:
        # degree-2 rotation and flip coincide; use the Klein four realization
        g = abelian_group([2, 2])
        g.name = "D4"
        return g
    rot = perms.from_cycles(n, [tuple(range(n))])
    flip = tuple((n - i) % n for i in range(n))
    return FiniteGroup(n, [rot, flip], name=f"D{order}")


def elementary_abelian_group(p: int, rank: int) -> FiniteGroup:
    if p < 2 or _smallest_factor(p) != p:
        raise ValueError("p must be a prime")
    if rank < 0:
        raise ValueError("rank must be non-negative")
    return abelian_group([p] * rank)


def abelian_group(invariants) -> FiniteGroup:
    """Direct product of cyclic groups of the given orders."""
    invariants = list(invariants)
    if not invariants:
        return FiniteGroup(1, [], name="C1")
    g = cyclic_group(invariants[0])
    for n in invariants[1:]:
        g = direct_product(g, cyclic_group(n))
    g.name = "x".join(f"C{n}" for n in invariants)
    return g


def direct_product(*factors: FiniteGroup) -> FiniteGroup:
    """Direct product acting on the disjoint union of the factor domains.

    The elements are listed directly as the direct sums of factor
    elements, each factor acting on its own block of points. Since the
    factors' element lists are sorted, so is that list, and the ids follow
    the factor order: for two factors G and H, element i*|H| + j is
    (g_i, h_j)."""
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    cap = max_group_order()
    if prod(g.order for g in factors) > cap:
        raise GroupTooLarge(f"group exceeds FUSIONKIT_MAX_GROUP_ORDER={cap}")
    degree = sum(g.degree for g in factors)
    gens = []
    blocks = []
    offset = 0
    for g in factors:
        for p in g.generators:
            q = list(range(degree))
            for i, x in enumerate(p):
                q[offset + i] = offset + x
            gens.append(tuple(q))
        blocks.append([tuple(offset + x for x in p) for p in g.elements])
        offset += g.degree
    elements = [sum(parts, ()) for parts in itertools.product(*blocks)]
    name = "x".join(g.name or "?" for g in factors)
    return FiniteGroup(degree, gens, name=name, elements=elements)


def extraspecial_plus(p: int) -> FiniteGroup:
    """The extraspecial group of order p^3 and exponent p, for odd p.

    Realized by its action on the p^2 cosets of a non-central order-p
    subgroup; points are pairs (b, d) encoded as b*p + d, with generators
    x: (b, d) -> (b, d - b), y: (b, d) -> (b + 1, d), z: (b, d) -> (b, d + 1),
    so that [x, y] = z is central and every element has order p.
    """
    if p < 3 or _smallest_factor(p) != p:
        raise ValueError("p must be an odd prime")
    n = p * p

    def pt(b, d):
        return (b % p) * p + (d % p)

    x = tuple(pt(b, d - b) for b in range(p) for d in range(p))
    y = tuple(pt(b + 1, d) for b in range(p) for d in range(p))
    z = tuple(pt(b, d + 1) for b in range(p) for d in range(p))
    g = FiniteGroup(n, [x, y, z], name=f"{p}^(1+2)")
    assert g.order == p**3
    return g


def _smallest_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def semidirect_product(
    base: FiniteGroup, actor: FiniteGroup, action
) -> FiniteGroup:
    """Split extension base : actor, acting on base x actor pairs.

    action[i][j] gives the image of base.generators[j] under the
    automorphism attached to actor.generators[i] (a permutation in base).
    The map actor -> Aut(base) is extended to every actor element and
    verified to be well defined; pairs multiply by
    (n, h) * (m, k) = (n * alpha_h(m), h * k).
    """
    nb, nh = base.order, actor.order
    cap = max_group_order()
    if nb * nh > cap:
        raise GroupTooLarge(f"group exceeds FUSIONKIT_MAX_GROUP_ORDER={cap}")
    base_gen_ids = base.generator_ids()
    actor_gen_ids = actor.generator_ids()
    if len(action) != len(actor_gen_ids):
        raise ValueError("action needs one row per actor generator")
    gen_autos = []
    for row in action:
        images = [base.id_of(p) for p in row]
        h = hom_from_images(base.full(), base, base_gen_ids, images)
        if h is None or not h.is_injective():
            raise ValueError("action row is not an automorphism of the base")
        gen_autos.append(h.images)  # total table over base ids (sorted = all)

    # alpha_(h*g)(m) = alpha_h(alpha_g(m)): built down the actor's tree,
    # then checked on every edge of its Cayley graph
    tree = cayley_tree(actor.full(), actor_gen_ids)
    alpha = [None] * nh
    alpha[actor.identity_id] = tuple(range(nb))
    for y, (j, p) in zip(tree.order[1:], tree.full.steps):
        ah = alpha[tree.order[p]]
        alpha[y] = tuple([ah[m] for m in gen_autos[j]])
    for col, ag in zip(tree.cols, gen_autos):
        for h, ah in enumerate(alpha):
            if alpha[col[h]] != tuple([ah[m] for m in ag]):
                raise ValueError(
                    "action does not extend to a homomorphism "
                    "actor -> Aut(base)"
                )

    # point n * nh + h stands for the pair (n, h)
    gens = [  # (m, 1): (n, h) -> (n * alpha_h(m), h)
        tuple(base.mul_ids(n, alpha[h][m]) * nh + h
              for n in range(nb) for h in range(nh))
        for m in base_gen_ids
    ] + [  # (1, k): (n, h) -> (n, h * k)
        tuple(n * nh + col[h] for n in range(nb) for h in range(nh))
        for col in tree.cols
    ]
    name = f"({base.name or '?'}):({actor.name or '?'})"
    g = FiniteGroup(nb * nh, gens, name=name)
    assert g.order == nb * nh
    return g
