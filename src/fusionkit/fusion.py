"""Fusion systems over a finite p-group.

A FusionSystem is fixed by the sets Hom(Q, S) of morphisms out of each
subgroup Q of its top group S; Hom(Q, P) is the subset whose image lies in
P. A morphism is stored by its vector: its images of Q.generator_ids(),
which fix it. One class holds every system, and a rule `hom(F, Q)` supplied
by its constructor gives Hom(Q, S) as a plain tuple of vectors, in a fixed
order, when Q is first asked for; a system hands out plain
`groups.GroupHom`s, which carry no record of how they were found
(`alperin.alperin_decompose` explains why a morphism lies in F).
`transporter_fusion` restricts the conjugations by an ambient group G (one
sweep conjugates S by a representative of each right coset of S in G and
reads the other elements' conjugations off S's table), `generated_fusion`
closes a seed set of injective homomorphisms, and the constructions
(products, quotients, normalizer and centralizer subsystems) read the
vectors of their parent systems. The closure is `word_search`, a
breadth-first search over generator images under partial maps, given as
runs of consecutive maps with one domain, so that a search node tests each
run's domain once. It runs `word_steps`, which yields the vectors one at a
time and can be suspended: `alperin_decompose` keeps one such search over
fcr automorphisms per domain and resumes it, and `automorphism_closure`
runs the search over automorphism tables of one subgroup, for the
generating set and Sylow ascent of `classify`, the rank-2 check of
`rv.certify_rv` and the K check of `constructions`. Every system records
each F-class once per order, from one member R: the class is the set of
images of Hom(R, S), since F holds each morphism's inverse (Aschbacher,
Kessar & Oliver 2011, I.2), and each member Q' is recorded with psi:
R -> Q', the first morphism of R onto Q' in rule order. A generated rule
records a class as it searches R; any other system, when the class of a
member is first asked for. A generated system answers Q' through R and psi,
since Hom(Q', S) = Hom(R, S) psi^-1, and builds Hom(Q', S) only when a read
asks for all of it (`hom_vectors`, `equal_hom_tables`): `images_at` reads R
at psi^-1 of the elements asked for, the count is R's, Hom(Q', P) is R's
morphisms into P carried across psi one at a time, and `member_test` tests
w by w psi.

`FusionSystem.images_at` is the one reader of these vectors: it walks
`groups.CayleyTree` to evaluate morphisms out of X at chosen elements of X,
or at all of them. Whole tables (morphisms handed out, `hom_to_S_tables`,
digests and audits), `extension_index`, the set of restrictions of
Hom(N, S) to a subgroup Q, the N_phi twists of `classify` and the rules of
the constructions all read it. Receptivity can also ask whether one map on
Q extends over N without restricting all of Hom(N, S): `extends` tries
candidate images of the generators that a walk of N seeded with Q's
generators adds, along the compiled walks of `extension_chain`. Outside
`groups`, `named` and this module no code names the tree. The memo keeps no
table of a morphism of Hom(Q, S), and Aut_S(Q) is kept the same way: one
generator-image vector per coset of C_S(Q) in N_S(Q), in
`centralizer_cosets`. It does keep four kinds of whole table: the
conjugation pairs of the transporter sweep, the seed maps of the generated
closure, `classify.out_F` of an abelian P, which is Aut_F(P) on the points
of P, and the fcr automorphisms that the Alperin search reads at any
element.

A system never changes once built, so its hom vectors and every invariant
derived from them (automizers, classes, normalizers, fcr objects, ...) are
computed once and kept in the system's single memo, `FusionSystem.cached`.
An entry of a subgroup is made only by `_memoised`, which keys it by the
function's name and the subgroups' id sets and checks on every call that
each subgroup lives in the system's ambient group (on a miss, inside S),
raising ValueError otherwise; the other entries are keyed by order,
element or nothing. Two kinds of entry grow. The class record is keyed by
order, and grows by one F-class at a time. The Alperin search from a
domain (`alperin._alperin_search`) grows each time a decomposition resumes
it; it holds its moves and vectors, never the system. Each member read by
transport keeps its psi^-1 and the two compiled walks that carry a vector
across psi, under `transported`.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
import random
from collections import namedtuple
from itertools import accumulate, groupby
from operator import itemgetter

from .groups import (
    CayleyTree,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _check_prime,
    _p_part,
    _same_ambient,
    _tabled,
    all_subgroups,
    as_hom,
    cayley_tree,
    centralizer,
    is_p_group,
    normalizer,
    right_cosets,
    subgroup_generated,
)

_MISSING = object()

# How a generated system reads a member Q' of an F-class off its searched
# member R, through psi: R -> Q', the first morphism of R onto Q' that the
# search found: `inverse` is the vector of psi^-1 on Q''s generators, `to_r`
# evaluates a morphism w out of Q' at psi(R's generators), giving the vector
# of w psi out of R, and `from_r` a morphism phi out of R at `inverse`,
# giving the vector of phi psi^-1 out of Q'.
_Transport = namedtuple("_Transport", "R inverse to_r from_r")


def _plan(X: Subgroup, elems):
    """The compiled walk of X's Cayley tree to `elems`, or to all of X
    when None."""
    tree = cayley_tree(X)
    return tree.full if elems is None else tree.plan(elems)


def _memoised(fn):
    """Memoise `fn(F, *subgroups)`, a FusionSystem method or a module
    function, in F's memo under the kind `fn`'s name without its leading
    underscores, keyed by the subgroups' id sets. Ids name elements of F's
    ambient group alone, so every call, hit or miss, checks that each
    subgroup lives there, and a miss that it lies inside S."""
    kind = fn.__name__.lstrip("_")

    @functools.wraps(fn)
    def memoised(F, *subgroups):
        for X in subgroups:
            _same_ambient(F.S, X)

        def compute():
            if any(not X.ids <= F.S.ids for X in subgroups):
                raise ValueError("object is not a subgroup of S")
            return fn(F, *subgroups)
        return F.cached((kind, *[X.ids for X in subgroups]), compute)
    return memoised


class FusionSystem:
    """Fusion system over a p-group S, queried through its hom vectors.

    `hom(F, Q)` returns Hom(Q, S) as a tuple of vectors and runs once per
    object Q: the images of Q.generator_ids() under each morphism, in an
    order that the class record, `hom_into` and the automizers read. It
    takes the system as an argument rather than holding it, so a system is
    freed by reference counting alone. `backend` names the rule
    ("transporter", "generated" or "derived"), which `_searched` alone
    reads. `generators(F)` lists morphisms that generate the system;
    without it every morphism is listed.
    `images_at(X, elems, vectors)` evaluates stored morphisms at chosen
    elements, and every table or restriction is read through it;
    `hom_into`, `hom_count` and `member_test` answer for Hom(Q, P), its
    size and its members without building Hom(Q, S) of a member read by
    transport."""

    def __init__(self, S: Subgroup, p: int, hom, backend: str,
                 generators=None):
        if not is_p_group(S, _check_prime(p)):
            raise ValueError(f"top group order {S.order} is not a power of {p}")
        # every subgroup closure and every table rebuilt inside S reads
        # S's multiplication table
        _tabled(S)
        self.S = S
        self.p = p
        self.ambient = S.ambient
        self.backend = backend
        self._rule = hom
        self._generators = generators
        self._memo: dict = {}

    def cached(self, key, compute):
        """The derived invariant stored under `key`, from `compute()` on
        first use. A system never changes once built, so each invariant is
        computed once; callers store immutable values or hand out copies.
        A key that names a subgroup is made by `_memoised` alone, which
        checks the subgroup's ambient group; this is the one place that
        reads or writes the memo. Two kinds of value grow in place: the
        class record of each order, one F-class at a time, and the Alperin
        search from a domain, which each decomposition on that domain
        resumes."""
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = compute()
        return value

    def subgroup(self, ids) -> Subgroup:
        """The one Subgroup of the system's ambient group on `ids`."""
        return Subgroup(self.ambient, ids)

    # -- object and hom-set queries ---------------------------------------

    def objects(self) -> list[Subgroup]:
        """Every subgroup of S, by (order, sorted ids)."""
        return self.cached(("objects",), lambda: all_subgroups(self.S))

    @_memoised
    def _hom(self, Q: Subgroup) -> tuple:
        """Hom(Q, S) as the images of Q.generator_ids() under each morphism,
        in the order the rule found them, from the rule the first time Q is
        asked for."""
        return self._rule(self, Q)

    # the one reader of the rule's vectors, kept in the memo as "hom"
    hom_vectors = _hom

    def images_at(self, X: Subgroup, elems=None, vectors=None) -> list:
        """The images of `elems` (all of X.sorted_ids when None) under each
        morphism out of X whose generator images are in `vectors` (Hom(X, S)
        when None), in order. This is the one reader of morphisms stored by
        their vectors: one `TreePlan.images` call walks X's Cayley tree
        once per vector, and no table is kept. On a member X read by
        transport from R, Hom(X, S) = Hom(R, S) psi^-1 is read as Hom(R, S)
        at psi^-1(elems), and X's own vectors are never built."""
        _same_ambient(self.S, X)
        if vectors is None:
            X, elems = self._site(X, elems)
            vectors = self.hom_vectors(X)
        return _plan(X, elems).images(self.ambient, vectors)

    def _site(self, X: Subgroup, elems) -> tuple:
        """(Y, at) such that Hom(X, S) at `elems` (all of X when None) is
        Hom(Y, S) at `at`, in the same order: X itself, unless X is read by
        transport from R, when it is R at psi^-1(elems)."""
        moved = self._source(X)
        if moved is None:
            return X, elems
        return moved.R, _plan(X, elems).images(self.ambient,
                                               [moved.inverse])[0]

    def table(self, Q: Subgroup, vec) -> tuple:
        """The image table over Q.sorted_ids of the morphism out of Q with
        generator images `vec`."""
        return self.images_at(Q, vectors=[vec])[0]

    def hom_to_S_tables(self, Q: Subgroup) -> tuple:
        """Hom(Q, S) as sorted image tables over Q.sorted_ids, built on
        each call."""
        return tuple(sorted(self.images_at(Q)))

    def has_morphism(self, Q: Subgroup, images) -> bool:
        """Whether the table `images` over Q.sorted_ids is a morphism
        Q -> S of the system: its generator images must name a stored
        vector, and the table that vector fixes must be `images`, so a
        table that agrees with a morphism on the generators alone is
        rejected."""
        if len(images) != Q.order:
            return False
        pos = Q.positions
        vec = tuple([images[pos[g]] for g in Q.generator_ids()])
        return (self.member_test(Q)(vec)
                and self.table(Q, vec) == tuple(images))

    @_memoised
    def vector_set(self, Q: Subgroup) -> frozenset:
        """Hom(Q, S) as a set of vectors, for membership tests."""
        # sized once from a dict: two slots per key where growing keeps four
        return frozenset(dict.fromkeys(self.hom_vectors(Q)))

    def member_test(self, Q: Subgroup):
        """The test of whether a vector of images of Q.generator_ids() is
        stored in Hom(Q, S), built once for many calls. On a member Q read
        by transport from R, w is stored exactly when w psi is stored for
        R and w is that morphism's transport: one walk of w at psi, and one
        more of a stored w psi at psi^-1 of Q's generators."""
        moved = self._source(Q)
        if moved is None:
            return self.vector_set(Q).__contains__
        amb, sids, stored = self.ambient, self.S.ids, self.vector_set(moved.R)
        to_r, from_r, width = moved.to_r, moved.from_r, len(moved.inverse)

        def is_stored(vec) -> bool:
            vec = tuple(vec)
            if len(vec) != width or not sids.issuperset(vec):
                return False
            up = to_r.images(amb, [vec])[0]
            return up in stored and from_r.images(amb, [up])[0] == vec
        return is_stored

    def hom_count(self, Q: Subgroup) -> int:
        """|Hom(Q, S)|, which a member read by transport shares with its
        searched member."""
        return len(self.hom_vectors(self._searched(Q)))

    def hom_into(self, Q: Subgroup, P: Subgroup, tables=False) -> tuple:
        """Hom(Q, P) in rule order, as (positions in Hom(Q, S), morphisms):
        each morphism's vector, or its image table over Q.sorted_ids when
        `tables`. A morphism maps into P exactly when its generator images
        lie in P, and psi^-1 maps a member Q' read by transport onto R, so
        Hom(Q', P) is Hom(R, P) read at psi^-1 of Q''s generators, or of
        all of Q': one walk each."""
        _same_ambient(self.S, P)
        if not P.ids <= self.S.ids:
            raise ValueError("codomain is not a subgroup of S")
        X, at = self._site(Q, None if tables else Q.generator_ids())
        vectors, pids = self.hom_vectors(X), P.ids
        picked = [i for i, v in enumerate(vectors) if pids.issuperset(v)]
        into = [vectors[i] for i in picked]
        if X is not Q or tables:
            into = _plan(X, at).images(self.ambient, into)
        return picked, into

    def hom_set(self, Q: Subgroup, P: Subgroup) -> list[GroupHom]:
        """The morphisms Q -> P, by image table. A morphism maps into P
        exactly when its generator images lie in P."""
        _picked, tables = self.hom_into(Q, P, tables=True)
        return [GroupHom(Q, P, t) for t in sorted(tables)]

    def hom_to_S(self, Q: Subgroup) -> list[GroupHom]:
        return self.hom_set(Q, self.S)

    @_memoised
    def aut_f_vectors(self, P: Subgroup) -> tuple:
        """Aut_F(P) as vectors: the morphisms out of P whose generator
        images lie in P, since an injective map of P into P is onto."""
        return tuple(self.hom_into(P, P)[1])

    def aut_f_tables(self, P: Subgroup) -> tuple:
        """Aut_F(P) as sorted image tables, built on each call."""
        return tuple(sorted(self.images_at(P, vectors=self.aut_f_vectors(P))))

    def aut_f(self, P: Subgroup) -> list[GroupHom]:
        return self.hom_set(P, P)

    @_memoised
    def normalizer_of(self, P: Subgroup) -> Subgroup:
        """N_S(P)."""
        return normalizer(self.S, P)

    @_memoised
    def centralizer_of(self, P: Subgroup) -> Subgroup:
        """C_S(P)."""
        return centralizer(self.S, P)

    @_memoised
    def centralizer_cosets(self, Q: Subgroup) -> tuple:
        """Aut_S(Q): the cosets of C_S(Q) in N_S(Q) as (r, member ids, vec),
        by increasing r. r is the least element of its coset and vec is
        the images of Q.generator_ids() under conjugation by r, the
        automorphism that every member of the coset induces on Q, stored
        like a morphism of Hom(Q, S). Aut_S(Q), the N_phi twists, N_S^K(Q),
        Inn(Q) and the audit read these vectors."""
        gens = Q.generator_ids()
        return tuple(
            (r, coset, self.ambient.conj_row(gens, r))
            for r, coset in right_cosets(self.normalizer_of(Q),
                                         self.centralizer_of(Q))
        )

    def aut_s(self, P: Subgroup) -> list[GroupHom]:
        """Aut_S(P) by image table: one automorphism per coset of C_S(P) in
        N_S(P)."""
        vectors = [vec for _r, _c, vec in self.centralizer_cosets(P)]
        return [GroupHom(P, P, t)
                for t in sorted(self.images_at(P, vectors=vectors))]

    def _image_objects(self, order: int, vectors) -> list:
        """The id set of the image of each morphism in `vectors`, out of an
        object of `order` > 1. A morphism is injective, so its image is the
        one object of that order that contains its generator images."""
        def objects_through():
            # {x: id sets of the objects of this order that contain x}
            through: dict = {}
            for R in self.objects():
                if R.order == order:
                    for x in R.ids:
                        through.setdefault(x, []).append(R.ids)
            return through
        through = self.cached(("objects_through", order), objects_through)
        return [next(ids for ids in through[v[0]] if ids.issuperset(v))
                for v in vectors]

    def _transports(self, order: int) -> dict:
        """The class record of `order`: {id set of an object: (R, psi)}, R
        being the member its F-class was recorded from and psi the vector
        of the first morphism of R onto it. An entry, once written, never
        changes, so the record only grows."""
        return self.cached(("transport", order), dict)

    def _record(self, R: Subgroup, vectors) -> None:
        """Record the F-class of R: the images of Hom(R, S) = `vectors`."""
        record = self._transports(R.order)
        for ids, psi in zip(self._image_objects(R.order, vectors), vectors):
            record.setdefault(ids, (R, psi))

    def _recorded(self, Q: Subgroup) -> Subgroup:
        """The member that the F-class of Q was recorded from: by a
        generated rule as it searched, or else here, from Q. Q must live in
        the system's ambient group, since its ids are looked up."""
        _same_ambient(self.S, Q)
        if Q.order == 1:
            return Q
        record = self._transports(Q.order)
        if Q.ids not in record:
            vectors = self.hom_vectors(Q)
            if Q.ids not in record:
                self._record(Q, vectors)
        return record[Q.ids][0]

    def _searched(self, Q: Subgroup) -> Subgroup:
        """The member whose Hom(R, S) answers for Hom(Q, S): the searched
        member of Q's F-class in a generated system, else Q itself."""
        if self.backend != "generated":
            return Q
        return self._recorded(Q)

    def _source(self, Q: Subgroup):
        """The `_Transport` that reads Q off the searched member of its
        F-class, or None when Hom(Q, S) is Q's own."""
        return None if self._searched(Q) is Q else self._transported(Q)

    @_memoised
    def _transported(self, Q: Subgroup) -> _Transport:
        """The `_Transport` of Q, a member read off the searched member R
        of its class. psi^-1 is read once, off psi's table."""
        R, psi = self._transports(Q.order)[Q.ids]
        back = dict(zip(self.table(R, psi), R.sorted_ids))
        inverse = tuple([back[y] for y in Q.generator_ids()])
        return _Transport(R, inverse, cayley_tree(Q).plan(psi),
                          cayley_tree(R).plan(inverse))

    def f_conjugates(self, P: Subgroup) -> list[Subgroup]:
        """All subgroups F-isomorphic to P, by sorted ids."""
        return list(self._class_members(self._recorded(P)))

    @_memoised
    def _class_members(self, R: Subgroup) -> tuple:
        if R.order == 1:
            return (R,)
        return tuple(sorted(
            (self.subgroup(ids) for ids, (T, _psi)
             in self._transports(R.order).items() if T is R),
            key=lambda Q: Q.sorted_ids))

    def conjugacy_classes(self) -> list[list[Subgroup]]:
        def compute():
            seen = set()
            out = []
            for Q in self.objects():
                if Q.ids not in seen:
                    cls = self.f_conjugates(Q)
                    seen.update(m.ids for m in cls)
                    out.append(tuple(cls))
            return tuple(out)
        classes = self.cached(("conjugacy_classes",), compute)
        return [list(cls) for cls in classes]

    def f_class_of_element(self, x) -> list[int]:
        """Directed element fusion: all phi(x) for phi in Hom(<x>, S)."""
        amb = self.ambient
        if not isinstance(x, int):
            x = amb.id_of(x)
        if x not in self.S.ids:
            raise ValueError("element is not in S")
        C = subgroup_generated(amb, [x])
        return list(self._f_classes(C)[C.positions[x]])

    @_memoised
    def _f_classes(self, C: Subgroup) -> tuple:
        """The F-classes of the elements of the cyclic subgroup C, aligned
        with C.sorted_ids: one walk of Hom(C, S) over all of C serves each
        element of C."""
        return tuple(tuple(sorted(set(col)))
                     for col in zip(*self.images_at(C)))

    # -- extension lookups (receptivity) ----------------------------------

    @_memoised
    def extension_index(self, N: Subgroup, Q: Subgroup) -> frozenset:
        """The restrictions to Q, which N must contain, of all of
        Hom(N, S), as images of Q.generator_ids(): a map out of Q extends
        over N exactly when its vector is in the set. This walks every
        morphism out of N, so it pays when Hom(N, S) is small; `extends`
        tests one map at a time."""
        return frozenset(self.images_at(N, Q.generator_ids()))

    @_memoised
    def extension_chain(self, N: Subgroup, Q: Subgroup) -> tuple:
        """The climb Q = N_0 < N_1 < ... < N_k = N of one Cayley walk of N
        seeded with Q's generators, N_(i+1) being N_i and one more greedy
        generator g: one (g, N_(i+1), down, up) per step. `down` evaluates
        a map given on the walk's first generators, those of Q then g_1 to
        g_(i+1), at N_(i+1).generator_ids(), the vector that stores it;
        `up` evaluates a stored morphism out of N_(i+1) back at the walk's
        generators."""
        tree = CayleyTree(N, seed=Q.generator_ids())
        k = len(Q.generator_ids())
        sids = N.sorted_ids
        steps = []
        for i, size in enumerate(tree.reached[1:]):
            Ni = self.subgroup([sids[x] for x in tree.order[:size]])
            gens = tree.gens[:k + i + 1]
            steps.append((gens[-1], Ni, tree.plan(Ni.generator_ids()),
                          cayley_tree(Ni).plan(gens)))
        return tuple(steps)

    def extends(self, N: Subgroup, Q: Subgroup, vec, candidates) -> bool:
        """Whether the morphism out of Q with generator images `vec`
        extends to a morphism out of N, where `candidates(g)` holds every
        image that an extension can give the element g of N. The images
        are chosen one generator of `extension_chain(N, Q)` at a time, and
        a choice stands when the vector it gives is stored for N_(i+1) and
        that morphism takes the chosen images: an extension is a stored
        morphism out of N that restricts to the map, so a choice that is
        not a homomorphism never stands."""
        return self._climb(self.extension_chain(N, Q), candidates, 0,
                           tuple(vec))

    def _climb(self, steps, candidates, i: int, head: tuple) -> bool:
        """Whether the images `head` of the walk's first generators extend
        from step i of `steps` to the top, depth first. A method, not a
        closure that calls itself: that closure would hold the system in a
        reference cycle, freed only by the cyclic garbage collector."""
        if i == len(steps):
            return True
        g, Ni, down, up = steps[i]
        amb, stored = self.ambient, self.member_test(Ni)
        for c in candidates(g):
            images = head + (c,)
            w = down.images(amb, [images])[0]
            if (stored(w) and up.images(amb, [w])[0] == images
                    and self._climb(steps, candidates, i + 1, images)):
                return True
        return False

    def generating_morphisms(self) -> list[GroupHom]:
        if self._generators is not None:
            return self._generators(self)
        out = []
        for Q in self.objects():
            out.extend(self.hom_set(Q, self.S))
        return out

    def __repr__(self):
        return (
            f"<FusionSystem backend={self.backend} p={self.p} "
            f"|S|={self.S.order}>"
        )


def _conjugation_pairs(F: FusionSystem, G: FiniteGroup) -> tuple:
    """The distinct pairs (D_g, c_g on D_g) over g in G, where
    D_g = S n S^(g^-1) is the largest subgroup of S that g conjugates
    into S: one (D_g, {x: x^g}) per pair, by increasing least such g, the
    order in which the transporter rule lists Hom(Q, S).

    The row of g lists x^g for x in S, or -1 where x^g leaves S. S is
    conjugated by one representative r of each right coset S*r alone;
    since x^(s*r) = (x^s)^r, the row of s*r is the row of r read through
    c_s on S by position, a lookup in S's table. One getter of c_s at a
    time is held, so the sweep keeps O(|G|) more than its rows."""
    def sweep():
        S, ssorted, pos = F.S, F.S.sorted_ids, F.S.positions
        cosets = right_cosets(G.full(), S)
        rows = [tuple(j if j in S.ids else -1 for j in G.conj_row(ssorted, r))
                for r, _coset in cosets]
        least = {}
        for a, s in enumerate(ssorted):
            c_s = [pos[y] for y in G.conj_row(ssorted, s)]
            # a single position (S = 1) would make the getter return an
            # entry, not a row; then s = 1 and every row is its own
            read = itemgetter(*c_s) if len(c_s) > 1 else tuple
            for row_r, (_r, coset) in zip(rows, cosets):
                row, g = read(row_r), coset[a]
                if g < least.get(row, G.order):
                    least[row] = g
        out = []
        for row, _g in sorted(least.items(), key=itemgetter(1)):
            table = {i: j for i, j in zip(ssorted, row) if j >= 0}
            out.append((F.subgroup(frozenset(table)), table))
        return tuple(out)
    return F.cached(("conjugation_pairs",), sweep)


def transporter_fusion(G: FiniteGroup, S: Subgroup, p: int) -> FusionSystem:
    """F_S(G): morphisms are conjugations by elements of G. Hom(Q, S) is
    read from the conjugation pairs by restriction: c_g maps Q into S
    exactly when Q <= D_g, and each map is listed at the first pair that
    gives it. The generating morphisms are one conjugation map per pair."""
    _check_prime(p)
    if S.ambient is not G:
        raise ValueError("S must be a subgroup of G")
    if not S.is_subgroup_closed():
        raise ValueError("S is not closed under the group operation")
    if S.order != _p_part(G.order, p):
        raise ValueError(
            f"S (order {S.order}) is not a Sylow {p}-subgroup of G "
            f"(order {G.order})"
        )

    def hom(F, Q):
        qids = Q.ids
        gens_q = Q.generator_ids()
        return tuple(dict.fromkeys(
            tuple(table[i] for i in gens_q)
            for D, table in _conjugation_pairs(F, G) if qids <= D.ids))

    def generators(F):
        return [GroupHom(D, F.S, [table[i] for i in D.sorted_ids])
                for D, table in _conjugation_pairs(F, G)]

    return FusionSystem(S, p, hom, "transporter", generators=generators)


def word_search(gens, runs, target=None) -> dict:
    """Breadth-first search from the generator ids `gens` of a subgroup Q
    under partial homomorphisms, given as `runs` (see `word_steps`).
    Returns {vector: (previous vector, move index)} in discovery order,
    None for the start, and stops as soon as `target` is discovered."""
    parents: dict = {}
    for vec in word_steps(gens, runs, parents):
        if vec == target:
            break
    return parents


def word_steps(gens, runs, parents: dict):
    """The search of `word_search`, one discovered vector at a time: each
    run is (domain ids, (table, ...)), a maximal stretch of consecutive
    maps {x: image} with one domain, and the k-th map of the flat sequence
    is move k. A vector of generator images fixes a composite map on Q, and
    a run applies to it when its domain contains every entry: that is
    tested once per run, and one getter of the vector reads each table of
    an applicable run. Each vector is written to `parents` as
    {vector: (previous vector, move index)}, None for the start, when it is
    first discovered, and then yielded, the start first. The order is
    fixed, so a search suspended and resumed gives every vector the parent
    that one run through gives it."""
    start = tuple(gens)
    parents[start] = None
    yield start
    frontier = [start]
    firsts = list(accumulate((len(tables) for _dom, tables in runs),
                             initial=0))
    while frontier:
        new = []
        for vec in frontier:
            if len(vec) > 1:
                get = itemgetter(*vec)
            else:
                # a getter of one point returns an entry, not a tuple
                def get(table, vec=vec):
                    return tuple([table[v] for v in vec])
            for (dom, tables), first in zip(runs, firsts):
                if not dom.issuperset(vec):
                    continue
                for k, nvec in enumerate(map(get, tables), first):
                    if nvec in parents:
                        continue
                    parents[nvec] = (vec, k)
                    yield nvec
                    new.append(nvec)
        frontier = new


def same_domain_runs(maps) -> tuple:
    """The runs of `word_search` from partial maps (domain ids, table):
    consecutive maps with equal domains form one (domain, tables) run, and
    the order of the maps is kept."""
    return tuple((dom, tuple(table for _dom, table in run))
                 for dom, run in groupby(maps, key=itemgetter(0)))


def automorphism_closure(P: Subgroup, tables) -> dict:
    """The group of automorphisms of P that the image `tables`, over
    P.sorted_ids, generate: the `word_search` closure of P's generators,
    keyed by the images of `P.generator_ids()` in discovery order."""
    return word_search(P.generator_ids(), (
        (P.ids, tuple(dict(zip(P.sorted_ids, t)) for t in tables)),))


def generated_fusion(S: Subgroup, p: int, gens) -> FusionSystem:
    """The smallest fusion system over S containing the seed maps `gens`.
    Hom(Q, S) is the `word_search` closure of Q's generators under the
    seeds, their inverses and the conjugations by the generators of S, run
    once per F-class: for the first member R of a class that is asked for.
    The search records one morphism psi of R onto each image object Q', and
    Hom(Q', S) = {phi psi^-1 : phi in Hom(R, S)} (Aschbacher, Kessar &
    Oliver 2011, I.2; psi^-1 is a composite of the seeds' inverses, so it
    lies in the system). The system answers Q' through R and psi; this
    rule builds Hom(Q', S), read off Hom(R, S) at psi^-1 of Q''s
    generators, only when a read asks for all of it. The search reads the
    seed maps of `_seed_runs`."""
    morphisms = []
    for g in gens:
        g = as_hom(g, S)
        domain, images = g.domain, g.images
        if not domain.ids <= S.ids:
            raise ValueError("generator domain is not a subgroup of S")
        if not set(images) <= S.ids:
            raise ValueError("generator image is not inside S")
        h = GroupHom(domain, S, images)
        if not h.is_injective():
            raise ValueError("generator is not injective")
        if not h.is_homomorphism():
            raise ValueError("generator is not a homomorphism")
        morphisms.append(h)

    def hom(F, Q):
        gens = Q.generator_ids()
        if Q.ids in F._transports(Q.order):
            # another member of Q's class was searched: read by transport
            return tuple(F.images_at(Q, gens))
        vectors = tuple(word_search(gens, _seed_runs(F)))
        if Q.order > 1:
            F._record(Q, vectors)
        return vectors

    return FusionSystem(S, p, hom, "generated",
                        generators=lambda _F: list(morphisms))


def _seed_runs(F: FusionSystem) -> tuple:
    """The moves of the searches of a generated system, as same-domain
    runs: each generating morphism as {x: image} on its domain, then its
    inverse onto its image, which the factorization axiom forces into the
    system, and last the conjugation by each generator of S, which makes
    every Hom_S map reachable, keeping the first of equal maps. Built once,
    and read by every search of the rule."""
    def build():
        S, seeds = F.S, {}

        def add(dom, table):
            seeds.setdefault(frozenset(table.items()), (dom, table))
        for m in F.generating_morphisms():
            dom, images = m.domain, m.images
            add(dom.ids, dict(zip(dom.sorted_ids, images)))
            add(frozenset(images), dict(zip(images, dom.sorted_ids)))
        for t in S.generator_ids():
            add(S.ids, dict(zip(S.sorted_ids,
                                F.ambient.conj_row(S.sorted_ids, t))))
        return same_domain_runs(seeds.values())
    return F.cached(("seed_runs",), build)


# perfbench/tracing.py times the building of generated systems under
# this name
GeneratedFusion = generated_fusion


def inner_fusion(S, p: int) -> FusionSystem:
    """F_S(S), built over S itself."""
    if isinstance(S, FiniteGroup):
        S = S.full()
    if S.ambient.order == S.order:
        return transporter_fusion(S.ambient, S, p)
    return generated_fusion(S, p, [])


# -- functional aliases ----------------------------------------------------


def hom_set(F: FusionSystem, Q: Subgroup, P: Subgroup):
    return F.hom_set(Q, P)


def aut_F(F: FusionSystem, P: Subgroup):
    return F.aut_f(P)


def aut_S(F: FusionSystem, P: Subgroup):
    return F.aut_s(P)


def f_conjugates(F: FusionSystem, P: Subgroup):
    return F.f_conjugates(P)


def f_class_of_element(F: FusionSystem, x):
    return F.f_class_of_element(x)


# -- equality, digests, audits --------------------------------------------


def _raw_table(F: FusionSystem, Q: Subgroup):
    """Ambient-independent form: (domain perms, sorted image-perm rows)."""
    amb = F.ambient
    dom = tuple(amb.elements[i] for i in Q.sorted_ids)
    rows = sorted(
        tuple(amb.elements[i] for i in t) for t in F.hom_to_S_tables(Q)
    )
    return dom, rows


def equal_hom_tables(F1: FusionSystem, F2: FusionSystem) -> bool:
    """Extensional equality of the two systems' full hom tables."""
    if F1.ambient is F2.ambient:
        # on one ambient a morphism is its vector on the same generators
        if F1.S.ids != F2.S.ids:
            return False
        for Q in F1.objects():
            if set(F1.hom_vectors(Q)) != set(F2.hom_vectors(Q)):
                return False
        return True
    if F1.ambient.degree != F2.ambient.degree:
        return False
    s1 = sorted(F1.ambient.elements[i] for i in F1.S.ids)
    s2 = sorted(F2.ambient.elements[i] for i in F2.S.ids)
    if s1 != s2:
        return False
    objs2 = {
        frozenset(F2.ambient.elements[i] for i in Q.ids): Q
        for Q in F2.objects()
    }
    for Q in F1.objects():
        key = frozenset(F1.ambient.elements[i] for i in Q.ids)
        other = objs2.pop(key, None)
        if other is None:
            return False
        if _raw_table(F1, Q) != _raw_table(F2, other):
            return False
    return not objs2


def hom_table_digest(F: FusionSystem) -> dict:
    """Deterministic sha256 digest plus per-object cardinalities."""
    h = hashlib.sha256()
    cards = []
    payload_objs = []
    for Q in F.objects():
        # pickle writes an object it has already written as a reference,
        # so the identity table is always written as Q.sorted_ids itself:
        # equal systems then digest equally, whichever rule built them
        ident = Q.sorted_ids
        tables = tuple(
            ident if t == ident else t for t in F.hom_to_S_tables(Q)
        )
        payload_objs.append((ident, tables))
        cards.append([Q.order, len(tables)])
    h.update(
        pickle.dumps(
            (F.ambient.degree, F.p, payload_objs), protocol=4
        )
    )
    return {
        "sha256": h.hexdigest(),
        "object_count": len(payload_objs),
        "morphism_count": sum(c for _, c in cards),
        "cardinalities": cards,
    }


# restriction pairs and composable maps checked by audit_axioms
AUDIT_SAMPLES = 150


def audit_axioms(F: FusionSystem) -> list[str]:
    """Check the category axioms; returns a list of violation messages.

    Verifies Hom_S(Q,S) inside the tables, injectivity and multiplicativity
    of every map, and closure under restriction and composition on a
    deterministic sample of AUDIT_SAMPLES pairs each, with the inverse of
    each sampled map of the latter, on which F-classes rely.
    """
    amb = F.ambient
    problems = []
    objects = F.objects()
    built: dict = {}

    def hom_tables(Q):
        # every table the audit reads, built once and dropped with it
        tables = built.get(Q.ids)
        if tables is None:
            tables = built[Q.ids] = F.hom_to_S_tables(Q)
        return tables

    for Q in objects:
        tables = hom_tables(Q)
        table_set = set(tables)
        # Hom_S(Q, S): conjugation by every s in S with Q^s <= S (always)
        for s in F.S.generator_ids():
            if amb.conj_row(Q.sorted_ids, s) not in table_set:
                problems.append(
                    f"missing inner map on subgroup of order {Q.order}"
                )
        for _r, _coset, vec in F.centralizer_cosets(Q):
            if F.table(Q, vec) not in table_set:
                problems.append(
                    f"Aut_S not inside Aut_F at order {Q.order}"
                )
        tree = cayley_tree(Q)
        pos = Q.positions
        for t in tables:
            if len(set(t)) != Q.order:
                problems.append(f"non-injective map on order {Q.order}")
            elif not tree.respects(amb, t, [t[pos[g]] for g in tree.gens]):
                problems.append(
                    f"non-multiplicative map on order {Q.order}"
                )
    # restriction closure
    pairs = []
    for Q in objects:
        for R in objects:
            if R.ids < Q.ids:
                pairs.append((Q, R))
    if len(pairs) > AUDIT_SAMPLES:
        pairs = random.Random(0).sample(pairs, AUDIT_SAMPLES)
    for Q, R in pairs:
        rpos = [Q.positions[i] for i in R.sorted_ids]
        sub_tables = set(hom_tables(R))
        for t in hom_tables(Q):
            if tuple(t[k] for k in rpos) not in sub_tables:
                problems.append(
                    f"restriction of an order-{Q.order} map missing at "
                    f"order {R.order}"
                )
                break
    # composition closure
    comps = []
    for Q in objects:
        for t in hom_tables(Q):
            comps.append((Q, t))
    if len(comps) > AUDIT_SAMPLES:
        comps = random.Random(1).sample(comps, AUDIT_SAMPLES)
    for Q, t in comps:
        R = F.subgroup(t)
        second = hom_tables(R)
        if len(R.ids) == Q.order:
            # the factorization axiom: the inverse onto Q lies in Hom(R, S)
            back = dict(zip(t, Q.sorted_ids))
            if tuple([back[y] for y in R.sorted_ids]) not in set(second):
                problems.append(
                    f"inverse of an order-{Q.order} map missing at its image"
                )
        table_set = set(hom_tables(Q))
        pos = R.positions
        for t2 in second[: AUDIT_SAMPLES // 10]:
            composite = tuple(t2[pos[i]] for i in t)
            if composite not in table_set:
                problems.append(
                    f"composition escaping the table at order {Q.order}"
                )
                break
    return problems
