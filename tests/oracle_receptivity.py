"""Receptivity by full tables, kept as a reference for N_phi and Aut_S.

This is how fusionkit tested receptivity before it read twists on
generator images. Aut_S(P) scans every s in N_S(P) and keeps the least s
for each full conjugation table of P. N_phi twists every element of P by
each coset representative r of C_S(Q) in N_S(Q) and compares the full
twisted table with Aut_S(P). An extension over N_phi is looked up by its
full restriction table to Q.

Conjugation and multiplication work on raw permutation tuples and the
ambient group's element list. The only inputs taken from the library are
the hom tables and the subgroups N_S(Q) and C_S(Q). The hom tables of
each subgroup and each conjugation table of Q by a coset representative
are computed once per Reference, so that the oracle runs in test time on
systems over 7^(1+2).

`is_receptive` is the loop that `classify.is_receptive` ran before it
took one domain per S-class and one map per double coset: every member Q
of P's F-class, N_phi for every map of Hom(Q, P), and one map decided per
orbit under Aut_S(Q), each by the library's own decision.
"""

from fusionkit.classify import _extensions


def _conj(x, g):
    # x^g = g^-1 x g: the point g[k] goes to g[x[k]]
    out = [0] * len(x)
    for k in range(len(x)):
        out[g[k]] = g[x[k]]
    return tuple(out)


def _mul(a, b):
    # apply a, then b
    return tuple(b[x] for x in a)


class Reference:
    """Full-table receptivity data for one fusion system F."""

    def __init__(self, F):
        self.F = F
        self.els = F.ambient.elements
        self.index = F.ambient.index
        self._aut_s = {}
        self._cosets = {}
        self._ext = {}
        self._homs = {}

    def hom_tables(self, Q):
        """Hom(Q, S) as sorted full tables, read from the library once per
        Q."""
        out = self._homs.get(Q.ids)
        if out is None:
            out = self._homs[Q.ids] = self.F.hom_to_S_tables(
                self.F.subgroup(Q.ids))
        return out

    def _conj_table(self, ids, s):
        els, index = self.els, self.index
        sp = els[s]
        return tuple(index[_conj(els[x], sp)] for x in ids)

    def aut_s(self, P):
        """Aut_S(P) as {full table on sorted(P): least s in N_S(P)}."""
        out = self._aut_s.get(P.ids)
        if out is None:
            psorted = sorted(P.ids)
            out = {}
            for s in self.F.normalizer_of(P).sorted_ids:
                out.setdefault(self._conj_table(psorted, s), s)
            self._aut_s[P.ids] = out
        return out

    def cosets(self, Q):
        """[(coset ids, {x: x^r for x in Q})] for the cosets C_S(Q) r of
        C_S(Q) in N_S(Q), by increasing least member r."""
        out = self._cosets.get(Q.ids)
        if out is None:
            els, index = self.els, self.index
            C = self.F.centralizer_of(Q)
            qsorted = sorted(Q.ids)
            covered = set()
            out = []
            for r in self.F.normalizer_of(Q).sorted_ids:
                if r in covered:
                    continue
                coset = frozenset(index[_mul(els[c], els[r])] for c in C.ids)
                covered |= coset
                out.append(
                    (coset, dict(zip(qsorted, self._conj_table(qsorted, r))))
                )
            self._cosets[Q.ids] = out
        return out

    def n_phi(self, Q, table):
        """N_phi for the iso Q -> P given by `table` on sorted(Q)."""
        F = self.F
        P = F.subgroup(frozenset(table))
        aut = self.aut_s(P)
        d = dict(zip(sorted(Q.ids), table))
        d_inv = {v: k for k, v in d.items()}
        pre = [d_inv[y] for y in sorted(P.ids)]
        ids = set()
        for coset, conj in self.cosets(Q):
            if tuple(d[conj[x]] for x in pre) in aut:
                ids |= coset
        return frozenset(ids)

    def extension(self, N, Q, table):
        """One table of Hom(N, S) whose full restriction to Q is `table`,
        the least such, or None."""
        key = (N.ids, Q.ids)
        idx = self._ext.get(key)
        if idx is None:
            nsorted = sorted(N.ids)
            qpos = [nsorted.index(i) for i in sorted(Q.ids)]
            idx = {}
            for t in self.hom_tables(N):
                idx.setdefault(tuple(t[k] for k in qpos), t)
            self._ext[key] = idx
        return idx.get(tuple(table))


def is_receptive(F, P):
    """Every isomorphism onto P from a member Q of its F-class extends over
    its N_phi, decided for one map of each orbit under Aut_S(Q) on the
    right, from the restrictions of Hom(N_phi, S) or from the map's
    candidate images, as `classify.is_receptive` picks."""
    if P == F.S:
        return True
    c_p = F.centralizer_of(P).order
    for Q in F.f_conjugates(P):
        decided = set()
        for vec, N, candidates, orbit in _extensions(
                F, Q, P, F.hom_into(Q, P)[1]):
            if vec in decided or N == Q:
                continue
            if F.hom_count(N) <= c_p * (N.order // Q.order):
                extends = vec in F.extension_index(N, Q)
            else:
                extends = F.extends(N, Q, vec, candidates)
            if not extends:
                return False
            decided.update(orbit)
    return True
