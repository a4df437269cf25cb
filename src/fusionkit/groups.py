"""Finite permutation groups, subgroups and the group-theoretic toolbox.

A FiniteGroup stores the fully enumerated, sorted element list of a
permutation group, closed breadth-first with one `perms.left_mul` getter
per element applied to every generator, under the order cap checked per
new element; everything downstream (subgroups, homomorphisms, fusion
data) refers to elements by their index into that list. Subgroups are
id-sets over a fixed ambient FiniteGroup and are cheap to hash and compare;
there is one live Subgroup instance per id set of an ambient group.

Element arithmetic (`mul_ids`, `mul_row`, `conj_row`, `conj_col`,
`power_ids`, `inverse_ids`) lives on FiniteGroup and has two paths. Each
ambient group holds at most one table: the multiplication and inverse
tables of a p-group S that is the top group of a fusion system or has
been scanned as a whole (by `all_subgroups`, `normalizer`, `centralizer`,
`quotient_group`, `hom_from_images` or `GroupHom.is_homomorphism`),
numbered locally by `S.sorted_ids` (Holt, Eick & O'Brien, Handbook of
Computational Group Theory, 2005). A p-group that contains S replaces its
table; one that neither contains nor lies in S keeps the tuple path.
Operands inside S read the table, which has |S|^2 two-byte entries
(11.8 MB at |S| = 2401); the subgroup lattice of the same S costs more.
Only a p-group of order at most 4096 is tabled (34 MB), so a scan of a
larger one, even one that needs no products, keeps the tuple path.
Every other operand takes the permutation-tuple path: the representatives
of the right cosets of S in G outside S, which the transporter sweep lists
and conjugates S by, and the elements of a non-p-group that the Sylow
ascent scans: at each step it stops at the first element that grows H
and builds no N_G(H). `classify` composes automizers as generator-image
vectors, not as permutations. The ambient itself is never tabled unless
it is a p-group, as it may be far larger than S.

`CayleyTree` is the one breadth-first walk over a subgroup's Cayley graph.
On its way it finds the subgroup's greedy generators
(`Subgroup.generator_ids`) and decides whether an id set is a subgroup at
all (`Subgroup.is_subgroup_closed`); the multiplication table of S is
composed along it. A homomorphism is fixed by its images of a generating
set, and the tree extends such images to a whole table, or to the images
of a few chosen elements: `hom_from_images` and `named.semidirect_product`
run on it, and a fusion system, which stores each morphism by its
generator images, reads them through its one method
`FusionSystem.images_at`. Each hom rule of a fusion system returns
Hom(Q, S) as one tuple of such vectors and nothing else, and the
GroupHoms that a system hands out hold their table alone.

`right_cosets` is the one routine that splits a group of element ids into
cosets; it lists each coset N*r as a tuple aligned with N's sorted ids.
The transporter sweep of F_S(G), the quotient S/T of a fusion system
(through `quotient_group`) and its centralizer cosets read it.
"""

from __future__ import annotations

import os
from array import array
from math import lcm
from weakref import WeakValueDictionary

from . import perms

DEFAULT_MAX_ORDER = 200_000


def max_group_order() -> int:
    """The order cap from FUSIONKIT_MAX_GROUP_ORDER, or the default when the
    variable is unset or empty; any other non-positive-integer value raises."""
    raw = os.environ.get("FUSIONKIT_MAX_GROUP_ORDER", "")
    if not raw:
        return DEFAULT_MAX_ORDER
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            "FUSIONKIT_MAX_GROUP_ORDER must be a positive integer, "
            f"got {raw!r}"
        )
    return cap


class GroupTooLarge(ValueError):
    pass


class FiniteGroup:
    """A permutation group with all elements enumerated and indexed."""

    def __init__(self, degree: int, generators, *, name: str = "", elements=None):
        self.degree = degree
        gens = [tuple(g) for g in generators]
        for g in gens:
            if len(g) != degree or not perms.is_perm(g):
                raise ValueError(f"not a permutation of degree {degree}: {g!r}")
        self.generators = gens
        self.name = name
        if elements is None:
            elements = self._close(gens)
        self.elements: tuple[tuple[int, ...], ...] = tuple(sorted(elements))
        self.index: dict[tuple[int, ...], int] = {
            p: i for i, p in enumerate(self.elements)
        }
        self.identity_id = self.index[perms.identity(degree)]
        self._order_cache: dict[int, int] = {}
        self._table: _Table | None = None
        self._all_ids: frozenset[int] | None = None
        self._subgroups: WeakValueDictionary = WeakValueDictionary()

    def _close(self, gens):
        cap = max_group_order()
        e = perms.identity(self.degree)
        seen = {e}
        frontier = [e]
        while frontier:
            new = []
            for x in frontier:
                # one getter per element, applied to every generator; the
                # cap is checked per new element, so at most cap + 1 are held
                for y in map(perms.left_mul(x), gens):
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
                        if len(seen) > cap:
                            raise GroupTooLarge(
                                "group exceeds "
                                f"FUSIONKIT_MAX_GROUP_ORDER={cap}")
            frontier = new
        return seen

    @property
    def order(self) -> int:
        return len(self.elements)

    def perm(self, i: int) -> tuple[int, ...]:
        return self.elements[i]

    def id_of(self, p) -> int:
        """The id of the permutation `p`, which must lie in the group."""
        try:
            return self.index[tuple(p)]
        except KeyError:
            raise ValueError(f"{tuple(p)!r} is not an element of {self!r}"
                             ) from None

    def mul_ids(self, i: int, j: int) -> int:
        t = self._table
        if t is not None and i in t.pos and j in t.pos:
            return t.sids[t.cols[t.pos[j]][t.pos[i]]]
        return self.index[perms.mul(self.elements[i], self.elements[j])]

    def mul_row(self, ids, g: int) -> tuple[int, ...]:
        """The ids of x*g for x in `ids`, in order."""
        hit = self._locate(g, ids)
        if hit is not None:
            t, b, locs = hit
            sids, col = t.sids, t.cols[b]
            return tuple([sids[col[a]] for a in locs])
        els, index, mul = self.elements, self.index, perms.mul
        gp = els[g]
        return tuple(index[mul(els[x], gp)] for x in ids)

    def conj_row(self, ids, g: int) -> tuple[int, ...]:
        """The ids of x^g = g^-1 x g for x in `ids`, in order."""
        hit = self._locate(g, ids)
        if hit is not None:
            t, b, locs = hit
            sids, cols, col_g, gi = t.sids, t.cols, t.cols[b], t.inv[b]
            return tuple([sids[col_g[cols[a][gi]]] for a in locs])
        els, index, conjugate = self.elements, self.index, perms.conjugate
        gp = els[g]
        return tuple(index[conjugate(els[x], gp)] for x in ids)

    def conj_col(self, x: int, gs) -> tuple[int, ...]:
        """The ids of x^g for g in `gs`, in order."""
        hit = self._locate(x, gs)
        if hit is not None:
            t, a, locs = hit
            sids, cols, inv, col_x = t.sids, t.cols, t.inv, t.cols[a]
            return tuple([sids[cols[g][col_x[inv[g]]]] for g in locs])
        els, index, conjugate = self.elements, self.index, perms.conjugate
        xp = els[x]
        return tuple(index[conjugate(xp, els[g])] for g in gs)

    def power_ids(self, i: int, k: int) -> int:
        t = self._table
        if t is not None and i in t.pos:
            a, cols = t.pos[i], t.cols
            if k < 0:
                a, k = t.inv[a], -k
            r = t.pos[self.identity_id]
            while k:
                if k & 1:
                    r = cols[a][r]
                a = cols[a][a]
                k >>= 1
            return t.sids[r]
        return self.index[perms.power(self.elements[i], k)]

    @property
    def inverse_ids(self) -> "_Inverses":
        """The sequence whose i-th entry is the id of the inverse of i."""
        return _Inverses(self)

    def _inverse(self, i: int) -> int:
        t = self._table
        if t is not None and i in t.pos:
            return t.sids[t.inv[t.pos[i]]]
        return self.index[perms.inverse(self.elements[i])]

    def _locate(self, g: int, ids):
        """(table, local g, local ids of `ids`) when the table holds g and
        all of `ids`, or None. `ids` is a collection, not an iterator: the
        tuple path reads it again when the table misses one of them."""
        t = self._table
        if t is not None and g in t.pos:
            try:
                return t, t.pos[g], list(map(t.pos.__getitem__, ids))
            except KeyError:
                pass
        return None

    def _tabulate(self, S: "Subgroup") -> "_Table":
        """The tables of S, composed along `cayley_tree(S)`: the column of
        y = x*g is col(g) applied after col(x), by lookups alone, so the
        only kernel calls are the tree's generator columns."""
        tree = cayley_tree(S)
        order, n = tree.order, S.order
        e = order[0]
        cols = [None] * n
        inv = [e] * n
        cols[e] = array("H", range(n))
        for y, (j, p) in zip(order[1:], tree.full.steps):
            col_g = tree.cols[j]
            col = [col_g[a] for a in cols[order[p]]]
            cols[y] = array("H", col)
            inv[y] = col.index(e)
        return _Table(S.ids, S.sorted_ids, S.positions, cols, inv)

    def element_order(self, i: int) -> int:
        o = self._order_cache.get(i)
        if o is None:
            o = perms.order(self.elements[i])
            self._order_cache[i] = o
        return o

    def generator_ids(self) -> list[int]:
        return [self.index[g] for g in self.generators]

    def __getstate__(self):
        # a copied or unpickled group interns its own subgroups
        return {k: v for k, v in vars(self).items() if k != "_subgroups"}

    def __setstate__(self, state):
        vars(self).update(state, _subgroups=WeakValueDictionary())

    def full(self) -> "Subgroup":
        # the id set is kept, not the Subgroup: a Subgroup refers back to
        # its ambient, and that cycle would keep a dropped group alive
        # until the cyclic garbage collector runs
        if self._all_ids is None:
            self._all_ids = frozenset(range(len(self.elements)))
        return Subgroup(self, self._all_ids)

    def trivial(self) -> "Subgroup":
        return Subgroup(self, (self.identity_id,))

    def __repr__(self):
        label = self.name or f"degree {self.degree}"
        return f"<FiniteGroup {label}, order {self.order}>"


class _Table:
    """The multiplication and inverse tables of a p-group S, numbered
    locally: local k stands for the ambient id S.sorted_ids[k]. cols[y][x]
    is the local id of x*y, so cols[y] is right multiplication by y, and
    inv[x] is the local id of x^-1."""

    __slots__ = ("ids", "sids", "pos", "cols", "inv")

    def __init__(self, ids, sids, pos, cols, inv):
        self.ids = ids
        self.sids = sids
        self.pos = pos
        self.cols = cols
        self.inv = inv


class _Inverses:
    """FiniteGroup.inverse_ids: entry i is the id of the inverse of i."""

    __slots__ = ("_amb",)

    def __init__(self, amb: FiniteGroup):
        self._amb = amb

    def __getitem__(self, i: int) -> int:
        return self._amb._inverse(i)

    def __len__(self) -> int:
        return self._amb.order


# a table holds |G|^2 array("H") entries: 34 MB at this cap
_MAX_TABLED_ORDER = 1 << 12


def _tabled(G: "Subgroup") -> None:
    """Give G's ambient its one table, over G, when G is a p-group and the
    ambient has no table yet or the table of a subgroup of G; otherwise G
    keeps the tuple path."""
    amb, t = G.ambient, G.ambient._table
    if t is not None and not t.ids < G.ids:
        return
    if G.order > _MAX_TABLED_ORDER or _sole_prime(G.order) is None:
        return
    amb._table = amb._tabulate(G)


class Subgroup:
    """A subgroup of a FiniteGroup, stored as a frozen set of element ids:
    the one live instance on that id set, which the ambient holds weakly,
    so its sorted ids, position map and Cayley tree are built once."""

    __slots__ = ("ambient", "ids", "_sorted", "_positions", "_tree", "_hash",
                 "__weakref__")

    def __new__(cls, ambient: FiniteGroup, ids):
        ids = ids if isinstance(ids, frozenset) else frozenset(ids)
        live = ambient._subgroups
        self = live.get(ids)
        if self is None:
            self = live[ids] = object.__new__(cls)
            self.ambient = ambient
            self.ids = ids
            self._sorted = self._positions = self._tree = self._hash = None
        return self

    def __reduce__(self):
        # a copy is the instance on the same id set of the copied ambient
        return Subgroup, (self.ambient, self.ids)

    @property
    def order(self) -> int:
        return len(self.ids)

    @property
    def sorted_ids(self) -> tuple[int, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.ids))
        return self._sorted

    @property
    def positions(self) -> dict[int, int]:
        """{id: index in sorted_ids}; shared, so callers must not mutate it."""
        if self._positions is None:
            self._positions = {i: k for k, i in enumerate(self.sorted_ids)}
        return self._positions

    def perms(self):
        amb = self.ambient.elements
        return [amb[i] for i in self.sorted_ids]

    def __contains__(self, i: int) -> bool:
        return i in self.ids

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.ambient is other.ambient
            and self.ids == other.ids
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.ambient), self.ids))
        return self._hash

    def __le__(self, other: "Subgroup") -> bool:
        return self.ambient is other.ambient and self.ids <= other.ids

    def __lt__(self, other: "Subgroup") -> bool:
        return self.ambient is other.ambient and self.ids < other.ids

    def generator_ids(self) -> list[int]:
        """A small deterministic generating set, greedy over sorted ids,
        found by the walk of `cayley_tree(self)`; shared, so callers must
        not mutate it."""
        return cayley_tree(self).gens

    def is_subgroup_closed(self) -> bool:
        try:
            cayley_tree(self)
        except ValueError:
            return False
        return True

    def __repr__(self):
        return f"<Subgroup order {self.order} of {self.ambient!r}>"


def _closure_ids(amb: FiniteGroup, seed_ids) -> set[int]:
    gens = [i for i in seed_ids if i != amb.identity_id]
    seen = {amb.identity_id}
    frontier = [amb.identity_id]
    while frontier:
        new = []
        # row k of the zip holds frontier[k] times each generator
        for products in zip(*(amb.mul_row(frontier, g) for g in gens)):
            for j in products:
                if j not in seen:
                    seen.add(j)
                    new.append(j)
        frontier = new
    return seen


def subgroup_generated(amb: FiniteGroup, gen_ids) -> Subgroup:
    return Subgroup(amb, _closure_ids(amb, set(gen_ids)))


def subgroup_from_perms(amb: FiniteGroup, gen_perms) -> Subgroup:
    return subgroup_generated(amb, [amb.id_of(p) for p in gen_perms])


def _same_ambient(G: Subgroup, X: Subgroup) -> FiniteGroup:
    """G's ambient group, which X must share: an id names an element of one
    ambient group alone."""
    if X.ambient is not G.ambient:
        raise ValueError("subgroup lives in a different ambient group")
    return G.ambient


def centralizer(G: Subgroup, X: Subgroup) -> Subgroup:
    """C_G(X) for X a subgroup of the same ambient group."""
    amb = _same_ambient(G, X)
    _tabled(G)
    cand = G.sorted_ids
    for x in X.generator_ids():
        cand = [g for g, y in zip(cand, amb.conj_col(x, cand)) if y == x]
    return Subgroup(amb, cand)


def normalizer(G: Subgroup, X: Subgroup) -> Subgroup:
    """N_G(X) for X a subgroup of the same ambient group."""
    amb = _same_ambient(G, X)
    _tabled(G)
    xids = X.ids
    cand = G.sorted_ids
    # one generator of X at a time: most elements fail on the first, and
    # only the survivors are conjugated by the next
    for x in X.generator_ids():
        cand = [g for g, y in zip(cand, amb.conj_col(x, cand)) if y in xids]
    return Subgroup(amb, cand)


def center(G: Subgroup) -> Subgroup:
    return centralizer(G, G)


def _check_prime(p) -> int:
    """`p`, which must be a prime int; ValueError otherwise. Every loop
    that divides by p (`_p_part`, `is_p_group`) stops only for p >= 2, so
    this runs before any of them."""
    if not isinstance(p, int) or p < 2 or _sole_prime(p) != p:
        raise ValueError(f"{p!r} is not a prime")
    return p


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def sylow_p(G: Subgroup, p: int) -> Subgroup:
    """A Sylow p-subgroup of G, grown by normalizer ascent (Holt, Eick &
    O'Brien, Handbook of Computational Group Theory, 2005).

    A p-group is its own Sylow subgroup. Otherwise H starts as the cyclic
    p-subgroup of the first element of order divisible by p. While H is
    not Sylow, N_G(H)/H has order divisible by p, and H grows by the
    p-element of the first coset Hg in N_G(H) whose order is divisible by
    p. N_G(H) is never built: G.sorted_ids is scanned in blocks of growing
    length, each filtered by conjugating one generator of H at a time,
    and the scan stops at the first usable g. Deterministic: g is always
    the first usable element in sorted id order, the one a scan of the
    whole N_G(H) would pick.
    """
    amb = G.ambient
    target = _p_part(G.order, _check_prime(p))
    if target == 1:
        return Subgroup(amb, (amb.identity_id,))
    if target == G.order:
        return G
    H = None
    for i in G.sorted_ids:
        o = amb.element_order(i)
        part = _p_part(o, p)
        if part > 1:
            H = subgroup_generated(amb, [amb.power_ids(i, o // part)])
            break
    assert H is not None
    while H.order < target:
        H = _extend_by_normalizing_p_element(
            amb, H, _next_sylow_step(G, H, p), p)
    return H


# the first block of the Sylow scan; each next block is twice as long
_SYLOW_BLOCK = 16


def _next_sylow_step(G: Subgroup, H: Subgroup, p: int) -> int:
    """A p-element j of N_G(H) outside H with j^p in H, from the first g
    in G.sorted_ids outside H that normalises H and whose coset Hg has
    order d divisible by p: j = g^(d/p)."""
    amb, sids, hids = G.ambient, G.sorted_ids, H.ids
    gens = H.generator_ids()
    start, size = 0, _SYLOW_BLOCK
    while start < len(sids):
        cand = [g for g in sids[start:start + size] if g not in hids]
        for x in gens:
            cand = [g for g, y in zip(cand, amb.conj_col(x, cand))
                    if y in hids]
        for g in cand:
            d = _coset_order(amb, H, g)
            if d % p == 0:
                return g if d == p else amb.power_ids(g, d // p)
        start, size = start + size, 2 * size
    # N_G(H)/H has order divisible by p while H is below Sylow
    raise RuntimeError("sylow ascent stalled")  # pragma: no cover


def _coset_order(amb: FiniteGroup, H: Subgroup, i: int) -> int:
    d = 1
    j = i
    while j not in H.ids:
        j = amb.mul_ids(j, i)
        d += 1
    return d


def _extend_by_normalizing_p_element(
    amb: FiniteGroup, H: Subgroup, g: int, p: int
) -> Subgroup:
    """<H, g> = H u Hg u ... u Hg^(p-1) when g normalizes H and g^p in H."""
    ids = set(H.ids)
    cur = g
    for _ in range(p - 1):
        ids.update(amb.mul_row(H.ids, cur))
        cur = amb.mul_ids(cur, g)
    return Subgroup(amb, ids)


def product_ids(A: Subgroup, B: Subgroup) -> frozenset:
    """Element ids of the set product AB, a subgroup when AB = BA."""
    amb = _same_ambient(A, B)
    out = set()
    for b in B.ids:
        out.update(amb.mul_row(A.ids, b))
    return frozenset(out)


def is_p_group(G: Subgroup, p: int) -> bool:
    n = G.order
    while n % p == 0:
        n //= p
    return n == 1


# --------------------------------------------------------------------------
# homomorphisms


class CayleyTree:
    """A breadth-first spanning tree of the Cayley graph of an id set Q on
    the generators `gens`: each element other than the identity is reached
    as parent * g from an element reached before it. A homomorphism out of
    Q is fixed by its images of `gens`, and along the tree
    phi(x) = phi(parent) * phi(g).

    With no `gens` the walk finds Q's greedy generators on its way: when it
    stops short of Q, the least element it has not reached becomes the
    next generator, and the walk resumes from every element reached. With
    `seed` it starts from the seed's generators and then goes on greedily,
    so it climbs from the subgroup the seed generates to Q one generator
    at a time; `reached[i]` counts the elements reached after pass i, the
    first pass being the seed's. Each generator's column costs one
    `mul_row` over Q; every other step is a lookup. The walk raises
    ValueError when Q lacks the identity, when a product leaves Q or when
    `gens` do not generate Q, so it succeeds exactly when Q is a subgroup.

    `order` lists the positions in Q.sorted_ids in walk order, each parent
    before its child. `plan(elems)` compiles the walk that evaluates a
    homomorphism at `elems` alone, down the tree paths that reach them;
    `full` is the plan for all of Q.sorted_ids, the one routine that
    rebuilds an image table from generator images. `cols[j][k]` is the
    position in Q.sorted_ids of Q.sorted_ids[k] * gens[j]: the edges that
    `respects` checks."""

    __slots__ = ("gens", "cols", "order", "reached", "_pos", "_node",
                 "_parent", "_gen", "_full")

    def __init__(self, Q: "Subgroup", gens=None, seed=()):
        amb = Q.ambient
        # the tree keeps Q's position map, not Q itself: Q holds its tree,
        # and a cycle would outlive its last reference
        sids, pos = Q.sorted_ids, Q.positions
        root = pos.get(amb.identity_id)
        if root is None:
            raise ValueError("the set does not contain the identity")
        self.gens, self.cols = [], []
        node = [-1] * len(sids)
        node[root] = 0
        order, parent, gen = [root], [0], [0]
        new, least = list(seed if gens is None else gens), 0
        self.reached = []
        while True:
            for g in new:
                col = tuple(map(pos.get, amb.mul_row(sids, g)))
                if None in col:
                    raise ValueError("a product x * g leaves the set")
                self.gens.append(g)
                self.cols.append(col)
            for n, x in enumerate(order):
                for j, col in enumerate(self.cols):
                    y = col[x]
                    if node[y] < 0:
                        node[y] = len(order)
                        order.append(y)
                        parent.append(n)
                        gen.append(j)
            self.reached.append(len(order))
            if len(order) == len(sids) or gens is not None:
                break
            while node[least] >= 0:
                least += 1
            new = [sids[least]]
        if len(order) != len(sids):
            raise ValueError("gen_ids do not generate the domain")
        self.order, self._pos = order, pos
        self._node, self._parent, self._gen = tuple(node), parent, gen
        self._full = None

    def plan(self, elems) -> "TreePlan":
        """The walk that evaluates a homomorphism at the elements `elems`
        of Q, in order: the tree nodes on their paths from the identity,
        in breadth-first order, so each parent comes before its child."""
        pos, node, parent = self._pos, self._node, self._parent
        targets = [node[pos[x]] for x in elems]
        need = set()
        for n in targets:
            while n and n not in need:
                need.add(n)
                n = parent[n]
        slot = {0: 0}
        steps = []
        for n in sorted(need):
            slot[n] = len(slot)
            steps.append((self._gen[n], slot[parent[n]]))
        return TreePlan(tuple(steps), tuple([slot[n] for n in targets]))

    @property
    def full(self) -> "TreePlan":
        """The plan for every element of Q, in sorted order."""
        if self._full is None:
            # every node is needed, so slots are the tree's own node order
            self._full = TreePlan(
                tuple(zip(self._gen[1:], self._parent[1:])), self._node)
        return self._full

    def respects(self, cod: FiniteGroup, images, vec) -> bool:
        """Whether the table `images` over Q.sorted_ids maps the generators
        to `vec` and is multiplicative on every edge x -> x*g of the Cayley
        graph, that is, is the homomorphism into `cod` they fix."""
        pos = self._pos
        for col, g, m in zip(self.cols, self.gens, vec):
            if images[pos[g]] != m:
                return False
            if cod.mul_row(images, m) != tuple([images[k] for k in col]):
                return False
        return True


class TreePlan:
    """A compiled walk down a CayleyTree. Slot 0 holds the identity, and
    step k, (generator index j, parent slot), fills slot k + 1 with the
    parent's value times generator j; `outs` are the slots of the
    requested elements. `images` walks many homomorphisms in one call:
    the codomain's table is looked up once, and then each vector is
    walked on its own, row by row."""

    __slots__ = ("steps", "outs")

    def __init__(self, steps, outs):
        self.steps = steps
        self.outs = outs

    def images(self, cod: FiniteGroup, vectors) -> list:
        """For each of `vectors`, the images of the plan's elements under
        the homomorphism that maps the tree's generators to its ids in
        `cod`, with one multiplication per step; a vector must extend to a
        homomorphism, which is not checked here. A vector inside the table
        of `cod` is walked by lookups in it, any other by `mul_ids`."""
        t = cod._table
        pos, cols, sids = ({}, (), ()) if t is None else (t.pos, t.cols,
                                                            t.sids)
        e = cod.identity_id
        steps, outs = self.steps, self.outs
        out = []
        for vec in vectors:
            try:
                vals = [pos[e]]
                gcols = [cols[pos[x]] for x in vec]
            except KeyError:
                mul = cod.mul_ids
                vals = [e]
                for j, p in steps:
                    vals.append(mul(vals[p], vec[j]))
                out.append(tuple([vals[s] for s in outs]))
                continue
            append = vals.append
            for j, p in steps:
                append(gcols[j][vals[p]])
            out.append(tuple([sids[vals[s]] for s in outs]))
        return out


def cayley_tree(Q: "Subgroup", gens=None) -> CayleyTree:
    """The CayleyTree of Q on `gens`, by default the greedy walk that
    finds Q.generator_ids(), built once per Subgroup instance."""
    tree = Q._tree
    if gens is None:
        if tree is None:
            tree = Q._tree = CayleyTree(Q)
    elif tree is None or list(gens) != tree.gens:
        tree = CayleyTree(Q, gens)
    return tree


class GroupHom:
    """A homomorphism domain -> codomain between subgroups, with its full
    image table; this is the one morphism class, so a morphism of a fusion
    system (an injective homomorphism between subgroups of S) is a GroupHom
    too. A fusion system stores a morphism by its images of the domain's
    generators and builds the table only when it hands a GroupHom out.

    images[k] is the codomain-ambient id of the image of the k-th element
    of domain.sorted_ids, and must cover the whole domain. A morphism holds
    its subgroups and its table alone, never the system that made it.
    Equality is extensional over (domain, codomain, table).
    """

    __slots__ = ("domain", "codomain", "images", "_hash")

    def __init__(self, domain: Subgroup, codomain: Subgroup, images):
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(images)
        if len(self.images) != domain.order:
            raise ValueError("image table does not cover the domain")
        self._hash = None

    def image_ids(self) -> frozenset[int]:
        return frozenset(self.images)

    def image(self) -> Subgroup:
        return Subgroup(self.codomain.ambient, self.image_ids())

    def is_injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def restrict(self, sub: Subgroup) -> "GroupHom":
        if not sub.ids <= self.domain.ids:
            raise ValueError("restriction target is not inside the domain")
        pos, images = self.domain.positions, self.images
        return GroupHom(sub, self.codomain,
                        [images[pos[i]] for i in sub.sorted_ids])

    def then(self, other: "GroupHom") -> "GroupHom":
        """self followed by other; image(self) must sit in other's domain."""
        pos, images = other.domain.positions, other.images
        return GroupHom(
            self.domain, other.codomain, [images[pos[i]] for i in self.images]
        )

    def is_homomorphism(self) -> bool:
        _tabled(self.domain)
        tree = cayley_tree(self.domain)
        pos, images = self.domain.positions, self.images
        return tree.respects(self.codomain.ambient, images,
                             [images[pos[g]] for g in tree.gens])

    def __eq__(self, other):
        return (
            isinstance(other, GroupHom)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.images == other.images
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.domain, self.codomain, self.images))
        return self._hash

    def __repr__(self):
        return (
            f"<GroupHom |Q|={self.domain.order} -> |P|={self.codomain.order}>"
        )


def as_hom(phi, codomain: Subgroup) -> GroupHom:
    """`phi` as a GroupHom into the ambient group of `codomain`.

    A GroupHom is returned as it is; a (domain, images) pair becomes the
    GroupHom domain -> codomain with that table. A morphism or domain from
    another ambient group raises ValueError, and anything else TypeError.
    """
    if (isinstance(phi, tuple) and len(phi) == 2
            and isinstance(phi[0], Subgroup)):
        phi = GroupHom(phi[0], codomain, phi[1])
    elif not isinstance(phi, GroupHom):
        raise TypeError(f"cannot interpret {phi!r} as a morphism")
    amb = codomain.ambient
    if phi.domain.ambient is not amb or phi.codomain.ambient is not amb:
        raise ValueError("morphism lives in a different ambient group")
    return phi


def hom_from_images(
    domain: Subgroup,
    codomain_ambient: FiniteGroup,
    gen_ids,
    image_ids,
) -> GroupHom | None:
    """Extend gen |-> image to a homomorphism, or return None.

    Builds the table along the Cayley tree of the domain on `gen_ids`, the
    tree that fusion systems rebuild their morphisms on, then checks every
    edge of the Cayley graph, so a returned map is verified multiplicative
    on all of domain x gens.
    """
    cod = codomain_ambient
    gen_ids = list(gen_ids)
    image_ids = list(image_ids)
    if len(gen_ids) != len(image_ids):
        raise ValueError("gen_ids and image_ids differ in length")
    _tabled(domain)
    tree = cayley_tree(domain, gen_ids)
    images = tree.full.images(cod, [image_ids])[0]
    if not tree.respects(cod, images, image_ids):
        return None
    return GroupHom(domain, cod.full(), images)


def _iso_candidates(domain: Subgroup, codomain: Subgroup):
    """Backtracking generator-image assignments for injective homs onto."""
    dom_amb, cod_amb = domain.ambient, codomain.ambient
    gens = domain.generator_ids()
    if not gens:  # trivial group
        yield []
        return
    by_order: dict[int, list[int]] = {}
    for i in codomain.sorted_ids:
        by_order.setdefault(cod_amb.element_order(i), []).append(i)
    gen_orders = [dom_amb.element_order(g) for g in gens]
    # pairwise product orders, for pruning partial assignments
    pair_order = {
        (a, b): dom_amb.element_order(dom_amb.mul_ids(gens[a], gens[b]))
        for a in range(len(gens))
        for b in range(a)
    }

    def extend(partial):
        k = len(partial)
        if k == len(gens):
            yield list(partial)
            return
        for cand in by_order.get(gen_orders[k], ()):
            ok = True
            for b in range(k):
                prod = cod_amb.mul_ids(partial[b], cand)
                if cod_amb.element_order(prod) != pair_order[(k, b)]:
                    ok = False
                    break
            if ok:
                partial.append(cand)
                yield from extend(partial)
                partial.pop()

    yield from extend([])


def isomorphisms(domain: Subgroup, codomain: Subgroup):
    """Yield isomorphisms domain -> codomain as GroupHoms.

    Candidates are generator-image assignments pruned by element orders and
    pairwise product orders, then validated by a full Cayley-graph walk.
    """
    if domain.order != codomain.order:
        return
    dom_orders = sorted(
        domain.ambient.element_order(i) for i in domain.sorted_ids
    )
    cod_orders = sorted(
        codomain.ambient.element_order(i) for i in codomain.sorted_ids
    )
    if dom_orders != cod_orders:
        return
    gens = domain.generator_ids()
    for assignment in _iso_candidates(domain, codomain):
        h = hom_from_images(domain, codomain.ambient, gens, assignment)
        if h is None:
            continue
        if not h.is_injective():
            continue
        if not h.image_ids() <= codomain.ids:
            continue
        yield GroupHom(domain, codomain, h.images)


def group_isomorphic(domain: Subgroup, codomain: Subgroup) -> GroupHom | None:
    return next(isomorphisms(domain, codomain), None)


def automorphisms(P: Subgroup) -> list[GroupHom]:
    """All automorphisms of P, in a canonical (image-table sorted) order."""
    out = list(isomorphisms(P, P))
    out.sort(key=lambda h: h.images)
    return out


def inner_automorphisms(P: Subgroup) -> list[GroupHom]:
    """The distinct conjugation maps c_x on P, x in P, by image table."""
    amb = P.ambient
    tables = {amb.conj_row(P.sorted_ids, x) for x in P.sorted_ids}
    return [GroupHom(P, P, t) for t in sorted(tables)]


# --------------------------------------------------------------------------
# subgroup enumeration


def all_subgroups(S: Subgroup) -> list[Subgroup]:
    """Every subgroup of S, by (order, sorted ids).

    For p-groups this climbs level by level: each subgroup of order p^(k+1)
    is H extended by a normalizing element g with g^p in H, so it is a plain
    union of p cosets of some H of order p^k. Other groups fall back to a
    join-closure over cyclic subgroups.
    """
    amb = S.ambient
    n = S.order
    prime = _sole_prime(n)
    if prime is not None:
        return _p_group_subgroups(S, prime)
    # generic fallback: close the cyclic subgroups under join
    found = {frozenset((amb.identity_id,))}
    for i in S.sorted_ids:
        found.add(subgroup_generated(amb, [i]).ids)
    frontier = list(found)
    while frontier:
        new = []
        for ids in frontier:
            gens = Subgroup(amb, ids).generator_ids()
            for i in S.sorted_ids:
                if i in ids:
                    continue
                fz = frozenset(_closure_ids(amb, gens + [i]))
                if fz not in found:
                    found.add(fz)
                    new.append(fz)
        frontier = new
    return sorted(
        (Subgroup(amb, ids) for ids in found),
        key=lambda H: (H.order, H.sorted_ids),
    )


def _sole_prime(n: int) -> int | None:
    if n == 1:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        p = n
    while n % p == 0:
        n //= p
    return p if n == 1 else None


def _p_group_subgroups(S: Subgroup, p: int) -> list[Subgroup]:
    amb = S.ambient
    _tabled(S)
    level = {frozenset((amb.identity_id,))}
    out = [Subgroup(amb, ids) for ids in level]
    while level:
        nxt = set()
        for ids in level:
            H = Subgroup(amb, ids)
            if H.order == S.order:
                continue
            N = normalizer(S, H)
            # every g in <H, g> outside H grows the same overgroup, so
            # elements of an overgroup already grown are skipped
            covered = set(ids)
            for g in N.sorted_ids:
                if g in covered or amb.power_ids(g, p) not in ids:
                    continue
                grown = _extend_by_normalizing_p_element(amb, H, g, p)
                nxt.add(grown.ids)
                covered |= grown.ids
        level = nxt
        out.extend(Subgroup(amb, ids) for ids in sorted(level, key=sorted))
    return sorted(out, key=lambda H: (H.order, H.sorted_ids))


# --------------------------------------------------------------------------
# quotients


def right_cosets(G: Subgroup, N: Subgroup) -> tuple:
    """The right cosets of N in G as (r, N*r), by increasing r, where r is
    the least id of its coset and N*r is the tuple `mul_row(N.sorted_ids,
    r)`: its k-th entry is n*r for the k-th element n of N. This is the
    one routine that splits a group into cosets."""
    amb = _same_ambient(G, N)
    covered = bytearray(amb.order)
    out = []
    for r in G.sorted_ids:
        if covered[r]:
            continue
        coset = amb.mul_row(N.sorted_ids, r)
        for j in coset:
            covered[j] = 1
        out.append((r, coset))
    return tuple(out)


def quotient_group(G: Subgroup, N: Subgroup):
    """The quotient G/N as a permutation group on the right cosets of N,
    numbered as `right_cosets` lists them; its elements are the rows of
    the coset representatives acting by right multiplication, and its
    `generators` list is empty.

    Returns (Q, theta) where theta maps ambient ids of G elements to Q ids.
    Raises if N is not normal in G.
    """
    amb = _same_ambient(G, N)
    if not N.ids <= G.ids:
        raise ValueError("N is not contained in G")
    _tabled(G)
    cosets = right_cosets(G, N)
    reps = [r for r, _ in cosets]
    # every element of G is n*r, and n normalizes N, so conjugating N's
    # generators by each representative tests normality
    ngens = N.generator_ids()
    if not all(y in N.ids for r in reps for y in amb.conj_row(ngens, r)):
        raise ValueError("N is not normal in G")
    coset_of = {j: c for c, (_, coset) in enumerate(cosets) for j in coset}
    rows = [tuple([coset_of[j] for j in amb.mul_row(reps, r)]) for r in reps]
    m = len(reps)
    Q = FiniteGroup(m, [], name=f"quotient of order {m}", elements=rows)
    theta = {j: Q.index[row] for row, (_, coset) in zip(rows, cosets)
             for j in coset}
    return Q, theta


def exponent(G: Subgroup) -> int:
    out = 1
    for i in G.sorted_ids:
        out = lcm(out, G.ambient.element_order(i))
    return out


def is_abelian(G: Subgroup) -> bool:
    amb = G.ambient
    gens = G.generator_ids()
    return all(
        amb.mul_ids(a, b) == amb.mul_ids(b, a) for a in gens for b in gens
    )
