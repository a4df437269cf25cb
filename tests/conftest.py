"""Shared suite systems, built once per session.

BUILD_SECONDS records wall-clock construction time per fixture so the
acceptance tests can account for build cost honestly even when a system
was first built by an earlier test. `work_counts` counts the hom-rule runs
of generated systems, the vectors each caller walks, the maps whose N_phi
receptivity computes and its candidate tests.
"""

import sys
import time
from collections import Counter
from types import SimpleNamespace

import pytest

import fusionkit.classify as classify
import fusionkit.fusion as fusion
import fusionkit.groups as groups
from fusionkit import (
    FiniteGroup,
    alternating_group,
    cyclic_group,
    direct_product,
    elementary_abelian_group,
    extraspecial_plus,
    generated_fusion,
    hom_from_images,
    semidirect_product,
    subgroup_generated,
    sylow_p,
    symmetric_group,
    transporter_fusion,
)
from fusionkit.rv import build_rv

BUILD_SECONDS: dict = {}


def _timed(name, thunk):
    t0 = time.perf_counter()
    value = thunk()
    BUILD_SECONDS[name] = time.perf_counter() - t0
    return value


def _transporter(G: FiniteGroup, p: int):
    return transporter_fusion(G, sylow_p(G.full(), p), p)


def sl33_group() -> FiniteGroup:
    """SL(3,3) acting on the 13 points of the projective plane."""
    pts = []
    for x0 in range(3):
        for x1 in range(3):
            for x2 in range(3):
                v = (x0, x1, x2)
                if v == (0, 0, 0):
                    continue
                if all(tuple(c * t % 3 for t in v) >= v for c in (1, 2)):
                    pts.append(v)
    idx = {v: i for i, v in enumerate(pts)}

    def norm(v):
        for t in v:
            if t == 1:
                return v
            if t == 2:
                return tuple(2 * s % 3 for s in v)
        raise AssertionError("zero vector")

    def mat_perm(M):
        return tuple(
            idx[norm(tuple(
                sum(M[i][j] * v[j] for j in range(3)) % 3 for i in range(3)
            ))]
            for v in pts
        )

    def elem(i, j):
        M = [[1 if r == c else 0 for c in range(3)] for r in range(3)]
        M[i][j] = 1
        return M

    gens = [mat_perm(elem(i, j)) for i in range(3) for j in range(3) if i != j]
    G = FiniteGroup(13, gens, name="SL(3,3)")
    assert G.order == 5616
    return G


def extraspecial27_c2() -> FiniteGroup:
    """3^(1+2) extended by the inverting involution (x,y -> inverses)."""
    P = extraspecial_plus(3)
    x, y, z = P.generator_ids()
    inv = P.inverse_ids
    action = [[P.elements[inv[x]], P.elements[inv[y]], P.elements[z]]]
    return semidirect_product(P, cyclic_group(2), action)


@pytest.fixture(scope="session")
def f_s3():
    return _timed("s3_c3", lambda: _transporter(symmetric_group(3), 3))


@pytest.fixture(scope="session")
def f_s4():
    return _timed("s4_d8", lambda: _transporter(symmetric_group(4), 2))


@pytest.fixture(scope="session")
def f_a4():
    return _timed("a4_v4", lambda: _transporter(alternating_group(4), 2))


@pytest.fixture(scope="session")
def f_sl33():
    return _timed("sl33", lambda: _transporter(sl33_group(), 3))


@pytest.fixture(scope="session")
def f_a4s3_p2():
    G = direct_product(alternating_group(4), symmetric_group(3))
    return _timed("a4s3_p2", lambda: _transporter(G, 2))


@pytest.fixture(scope="session")
def f_a4s3_p3():
    G = direct_product(alternating_group(4), symmetric_group(3))
    return _timed("a4s3_p3", lambda: _transporter(G, 3))


@pytest.fixture(scope="session")
def f_es54():
    return _timed("es27_c2", lambda: _transporter(extraspecial27_c2(), 3))


@pytest.fixture(scope="session")
def saturated_suite(f_s3, f_s4, f_a4, f_sl33, f_a4s3_p2, f_a4s3_p3, f_es54):
    """Criterion-style suite: every member must be saturated."""
    return [
        ("s3_c3", f_s3),
        ("s4_d8", f_s4),
        ("a4_v4", f_a4),
        ("sl33", f_sl33),
        ("a4s3_p2", f_a4s3_p2),
        ("a4s3_p3", f_a4s3_p3),
        ("es27_c2", f_es54),
    ]


@pytest.fixture(scope="session")
def f_swap():
    """The involutory-swap generated system over the Klein four group."""
    def build():
        V = elementary_abelian_group(2, 2)
        a, b = V.generator_ids()
        dom = subgroup_generated(V, [a])
        h = hom_from_images(dom, V, [a], [b])
        return generated_fusion(V.full(), 2, [h])
    return _timed("swap_v4", build)


@pytest.fixture(scope="session")
def rv_systems():
    out = {}
    for name in ("rv1", "rv2", "rv3"):
        out[name] = _timed(name, lambda n=name: build_rv(n))
    return out


# the readers that `TreePlan.images` is called through, skipped when a walk
# is charged to its caller
WALK_READERS = {"images", "images_at", "table", "is_stored"}


@pytest.fixture
def work_counts(monkeypatch):
    """Counts of the work done from here to the end of the test. `rules`
    lists (order, ids) of the object of each run of a generated system's
    hom rule, and `walks` counts the vectors that `TreePlan.images` walks,
    by caller: the first function on the stack outside WALK_READERS, so a
    read through `FusionSystem.images_at` is charged to whoever asked for
    it, and the generated rule's own reads to `hom`. `n_phi` counts the
    vectors passed to `classify._n_phi_all` and `extends` the calls of
    `FusionSystem.extends`."""
    counts = SimpleNamespace(rules=[], walks=Counter(), n_phi=0, extends=0)
    images = groups.TreePlan.images

    def counted_images(plan, cod, vectors):
        out = images(plan, cod, vectors)
        frame = sys._getframe(1)
        while frame.f_code.co_name in WALK_READERS:
            frame = frame.f_back
        counts.walks[frame.f_code.co_name] += len(out)
        return out

    init = fusion.FusionSystem.__init__

    def counted_init(F, S, p, hom, backend, generators=None):
        if backend == "generated":
            def hom(F, Q, rule=hom):
                counts.rules.append((Q.order, Q.ids))
                return rule(F, Q)
        init(F, S, p, hom, backend, generators)

    n_phi_all = classify._n_phi_all

    def counted_n_phi_all(F, Q, P, vectors):
        counts.n_phi += len(vectors)
        return n_phi_all(F, Q, P, vectors)

    extends = fusion.FusionSystem.extends

    def counted_extends(F, N, Q, vec, candidates):
        counts.extends += 1
        return extends(F, N, Q, vec, candidates)

    monkeypatch.setattr(groups.TreePlan, "images", counted_images)
    monkeypatch.setattr(fusion.FusionSystem, "__init__", counted_init)
    monkeypatch.setattr(classify, "_n_phi_all", counted_n_phi_all)
    monkeypatch.setattr(fusion.FusionSystem, "extends", counted_extends)
    return counts
