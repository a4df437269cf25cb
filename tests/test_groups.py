"""Group kernel: named constructions, Sylow machinery, automorphisms."""

import copy
import gc
import os
import pathlib
import pickle
import random
import re
import subprocess
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionkit
import oracle_groups
from conftest import extraspecial27_c2, sl33_group
from oracle_product import direct_sum
from oracle_sweep import _conj, _mul
from test_sweep import GROUPS, relabelled
from fusionkit import (
    GroupTooLarge,
    all_subgroups,
    alternating_group,
    automorphisms,
    center,
    centralizer,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    exponent,
    extraspecial_plus,
    generated_fusion,
    group_isomorphic,
    hom_from_images,
    inner_automorphisms,
    is_abelian,
    isomorphisms,
    max_group_order,
    normalizer,
    perms,
    quotient_group,
    semidirect_product,
    subgroup_from_perms,
    subgroup_generated,
    sylow_p,
    symmetric_group,
    transporter_fusion,
)
from fusionkit.groups import (
    FiniteGroup,
    Subgroup,
    _check_prime,
    is_p_group,
    right_cosets,
)


def test_named_orders():
    assert symmetric_group(4).order == 24
    assert alternating_group(4).order == 12
    assert dihedral_group(8).order == 8
    assert cyclic_group(6).order == 6
    assert elementary_abelian_group(2, 2).order == 4
    assert extraspecial_plus(3).order == 27
    assert extraspecial_plus(7).order == 343


def test_dihedral_degenerate_cases():
    assert group_isomorphic(
        dihedral_group(4).full(), elementary_abelian_group(2, 2).full()
    )
    assert group_isomorphic(dihedral_group(2).full(), cyclic_group(2).full())


def test_extraspecial_invariants():
    for p in (3, 5, 7):
        G = extraspecial_plus(p)
        assert G.order == p ** 3
        assert exponent(G.full()) == p
        Z = center(G.full())
        assert Z.order == p
        # derived subgroup equals the center
        comm = set()
        for i in G.generator_ids():
            for j in range(G.order):
                a, b = G.elements[i], G.elements[j]
                comm.add(G.index[perms.mul(
                    perms.mul(perms.inverse(a), perms.inverse(b)),
                    perms.mul(a, b),
                )])
        assert subgroup_generated(G, comm).ids == Z.ids


def test_extraspecial_rejects_even_prime():
    with pytest.raises(ValueError):
        extraspecial_plus(2)
    with pytest.raises(ValueError):
        extraspecial_plus(9)


def test_extraspecial_subgroup_profile():
    # order-p subgroups: (p^3-1)/(p-1) cyclic lines; order-p^2: p+1 planes
    for p in (3, 7):
        G = extraspecial_plus(p)
        subs = all_subgroups(G.full())
        by_order = {}
        for H in subs:
            by_order[H.order] = by_order.get(H.order, 0) + 1
        assert by_order[p] == (p ** 3 - 1) // (p - 1)
        assert by_order[p * p] == p + 1
        assert by_order[1] == 1 and by_order[p ** 3] == 1


def test_automorphism_group_order_of_extraspecial_27():
    G = extraspecial_plus(3)
    auts = automorphisms(G.full())
    assert len(auts) == 432  # |Inn| * |GL2(3)| = 9 * 48
    inner = inner_automorphisms(G.full())
    assert len(inner) == 9
    assert set(inner) <= set(auts)


def test_automorphisms_of_a_subgroup_are_onto_it():
    G = symmetric_group(4)
    S = sylow_p(G.full(), 2)
    auts = automorphisms(S)
    assert len(auts) == 8
    assert all(a.codomain == S and a.image_ids() == S.ids for a in auts)
    assert set(inner_automorphisms(S)) <= set(auts)


def test_automorphisms_form_group():
    G = dihedral_group(8)
    auts = automorphisms(G.full())
    assert len(auts) == 8
    tabs = {a.images for a in auts}
    for a in auts:
        for b in auts:
            assert a.then(b).images in tabs
    inn = inner_automorphisms(G.full())
    assert len(inn) == G.order // center(G.full()).order


def test_sylow_order_and_conjugacy():
    G = symmetric_group(4)
    S1 = sylow_p(G.full(), 2)
    assert S1.order == 8
    assert sylow_p(G.full(), 3).order == 3
    # any two Sylow subgroups are conjugate by an explicit element
    g0 = G.index[(1, 0, 2, 3)]
    ids = frozenset(
        G.index[perms.conjugate(G.elements[i], G.elements[g0])]
        for i in S1.ids
    )
    S2 = subgroup_generated(G, ids)
    found = any(
        frozenset(
            G.index[perms.conjugate(G.elements[i], g)] for i in S1.ids
        ) == S2.ids
        for g in G.elements
    )
    assert found


@pytest.mark.parametrize("p", [2, 3, 7, 97])
def test_check_prime_accepts_primes(p):
    assert _check_prime(p) == p


# 1 made `_p_part` loop forever, 0 divided by zero, and a negative prime
# power is its own `_sole_prime`
@pytest.mark.parametrize("p", [0, 1, -4, -3, 4, 6, 49, True, 2.0, "3", None])
def test_check_prime_rejects_everything_else(p):
    with pytest.raises(ValueError, match="not a prime"):
        _check_prime(p)


def test_non_prime_p_is_rejected_before_any_loop_on_it():
    """`transporter_fusion` accepted p = 4 over a subgroup of order 4, and
    `sylow_p` failed on p = 6 with an AssertionError; each entry point
    that takes p now raises ValueError."""
    G = symmetric_group(4)
    S = sylow_p(G.full(), 2)
    V4 = subgroup_generated(G, [G.index[(1, 0, 3, 2)], G.index[(2, 3, 0, 1)]])
    with pytest.raises(ValueError, match="not a prime"):
        transporter_fusion(G, V4, 4)
    with pytest.raises(ValueError, match="not a prime"):
        generated_fusion(S, 1, [])
    with pytest.raises(ValueError, match="not a prime"):
        sylow_p(G.full(), 6)


def test_p_core():
    G = symmetric_group(4)
    O2 = oracle_groups.p_core(G.full(), 2)
    assert O2.order == 4
    assert normalizer(G.full(), O2) == G.full()
    S = sylow_p(G.full(), 2)
    assert O2.ids <= S.ids
    assert oracle_groups.p_core(G.full(), 3).order == 1


def test_quotient_group():
    G = symmetric_group(4)
    V = oracle_groups.p_core(G.full(), 2)
    Q, theta = quotient_group(G.full(), V)
    assert Q.order == 6
    # theta is a surjective homomorphism with kernel V
    for i in range(G.order):
        for j in G.generator_ids():
            assert theta[G.mul_ids(i, j)] == Q.mul_ids(theta[i], theta[j])
    assert {i for i in theta if theta[i] == Q.identity_id} == set(V.ids)


def test_quotient_group_rejects_a_non_normal_subgroup():
    G = symmetric_group(4)
    H = subgroup_from_perms(G, [perms.from_cycles(4, [(0, 1)])])
    with pytest.raises(ValueError, match="not normal"):
        quotient_group(G.full(), H)


@pytest.mark.parametrize("build", [lambda: symmetric_group(4),
                                   lambda: extraspecial_plus(3)],
                         ids=["S4", "3^(1+2)"])
def test_right_cosets_match_tuple_reference(build):
    G = build()
    g_perms = set(G.elements)
    for H in all_subgroups(G.full()):
        cosets = right_cosets(G.full(), H)
        reps = [r for r, _ in cosets]
        assert reps == sorted(reps)
        assert all(r == min(coset) for r, coset in cosets)
        # the k-th member of H*r is n*r for the k-th element n of H
        assert all(coset == G.mul_row(H.sorted_ids, r) for r, coset in cosets)
        got = [frozenset(G.elements[i] for i in coset) for _, coset in cosets]
        want = oracle_groups.right_cosets(g_perms, set(H.perms()))
        assert len(got) == len(want) == G.order // H.order
        assert set(got) == want


def test_all_subgroups_counts():
    assert len(all_subgroups(dihedral_group(8).full())) == 10
    assert len(all_subgroups(symmetric_group(4).full())) == 30
    assert len(all_subgroups(elementary_abelian_group(2, 2).full())) == 5
    assert len(all_subgroups(extraspecial_plus(3).full())) == 19
    assert len(all_subgroups(alternating_group(5).full())) == 59


def _check_rows(G, xs, gs, ks):
    """The element arithmetic of G against raw permutation tuples: rows,
    columns, single products, powers and inverses."""
    els, index = G.elements, G.index
    for g in gs:
        assert G.conj_row(xs, g) == tuple(
            index[_conj(els[x], els[g])] for x in xs)
        assert G.mul_row(xs, g) == tuple(
            index[_mul(els[x], els[g])] for x in xs)
    for x in xs:
        assert G.conj_col(x, gs) == tuple(
            index[_conj(els[x], els[g])] for g in gs)
        assert [G.mul_ids(x, g) for g in gs] == [
            index[_mul(els[x], els[g])] for g in gs]
        assert G.inverse_ids[x] == index[oracle_groups.inverse(els[x])]
        for k in ks:
            assert G.power_ids(x, k) == index[oracle_groups.power(els[x], k)]


def test_row_arithmetic_on_all_of_s4():
    G = symmetric_group(4)
    _check_rows(G, range(G.order), range(G.order), range(-2, 6))


@pytest.mark.parametrize("build", [
    lambda: alternating_group(8),
    lambda: extraspecial_plus(7),
])
def test_row_arithmetic_on_seeded_pairs(build):
    G = build()
    rng = random.Random(G.order)
    xs = rng.sample(range(G.order), 60)
    gs = rng.sample(range(G.order), 30)
    _check_rows(G, xs, gs, [-1, 0, 1, 2, 7, rng.randrange(2, 50)])
    assert G.conj_row((), gs[0]) == G.mul_row([], gs[0]) == ()


TABLED = {
    "7^(1+2)": (lambda: extraspecial_plus(7), 7),
    "3^(1+2)xC3": (
        lambda: direct_product(extraspecial_plus(3), cyclic_group(3)), 3),
    "D16": (lambda: dihedral_group(16), 2),
    "Syl2(S8)": (lambda: symmetric_group(8), 2),
}


@pytest.mark.parametrize("relabel", [False, True],
                         ids=["plain", "relabelled"])
@pytest.mark.parametrize("name", sorted(TABLED))
def test_s_table_matches_tuple_arithmetic(name, relabel):
    build, p = TABLED[name]
    G = build()
    if relabel:
        G = relabelled(G, random.Random(name))
    S = sylow_p(G.full(), p)
    subgroups = all_subgroups(S)
    assert G._table.ids == S.ids
    rng = random.Random(f"{name}:{relabel}")

    def sample(ids, k):
        return rng.sample(sorted(ids), min(k, len(ids)))

    # operands outside S (only Syl2(S8) has any) take the tuple path,
    # alone and mixed with operands inside S
    outside = sample(set(range(G.order)) - S.ids, 10)
    xs = sample(S.ids, 40) + outside[:5]
    gs = sample(S.ids, 20) + outside
    _check_rows(G, xs, gs, [-p - 1, -1, 0, 1, 2, p, rng.randrange(p, 60)])
    els = G.elements
    for g in outside:
        assert G.conj_row(S.sorted_ids, g) == tuple(
            G.index[_conj(els[x], els[g])] for x in S.sorted_ids)

    s_perms = set(S.perms())
    for H in subgroups:
        h_perms = set(H.perms())
        assert (set(normalizer(S, H).perms())
                == oracle_groups.normalizer(s_perms, h_perms))
        assert (set(centralizer(S, H).perms())
                == oracle_groups.centralizer(s_perms, h_perms))
    Z = center(S)
    if outside:
        assert (set(normalizer(G.full(), Z).perms())
                == oracle_groups.normalizer(els, set(Z.perms())))

    Q, theta = quotient_group(S, Z)
    fibres = {}
    for i in S.ids:
        fibres.setdefault(theta[i], set()).add(els[i])
    assert ({frozenset(f) for f in fibres.values()}
            == oracle_groups.right_cosets(s_perms, set(Z.perms())))
    for a in xs[:20]:
        for b in gs[:20]:
            if a in S.ids and b in S.ids:
                ab = G.index[_mul(els[a], els[b])]
                assert Q.elements[theta[ab]] == _mul(
                    Q.elements[theta[a]], Q.elements[theta[b]])


def test_p_group_above_the_table_cap_keeps_the_tuple_path():
    """A scan of a p-group of order 2^13 builds no table: one would hold
    2^26 two-byte entries, and this scan needs no products at all."""
    G = elementary_abelian_group(2, 13)
    assert centralizer(G.full(), G.trivial()) == G.full()
    assert G._table is None


@pytest.mark.parametrize("name", ["7^(1+2)", "3^(1+2):2 x S3"])
def test_tabled_s_makes_no_kernel_calls(name, monkeypatch):
    if name == "7^(1+2)":
        G, p = extraspecial_plus(7), 7
    else:
        G, p = direct_product(extraspecial27_c2(), symmetric_group(3)), 3
    S = sylow_p(G.full(), p)
    all_subgroups(S)
    probe = cyclic_group(2)
    calls = Counter()
    for kernel in ("mul", "conjugate", "power", "inverse"):
        def counted(*args, _real=getattr(perms, kernel), _name=kernel):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(perms, kernel, counted)
    # the counters see the kernel calls of a group with no table
    probe.mul_row([probe.identity_id], probe.identity_id)
    assert calls == {"mul": 1}
    calls.clear()
    subgroups = all_subgroups(S)
    for H in subgroups:
        normalizer(S, H)
        centralizer(S, H)
    quotient_group(S, center(S))
    assert calls == {}


def test_positions_index_sorted_ids():
    for H in all_subgroups(sylow_p(symmetric_group(6).full(), 2)):
        pos = H.positions
        assert [H.sorted_ids[pos[i]] for i in H.ids] == list(H.ids)
        assert sorted(pos.values()) == list(range(H.order))
        assert H.positions is pos


def test_centralizer_normalizer():
    G = symmetric_group(4)
    S = sylow_p(G.full(), 2)
    Z = center(S)
    assert Z.order == 2
    assert centralizer(S, Z).ids == S.ids
    C = subgroup_generated(G, [G.index[(1, 0, 3, 2)]])
    assert normalizer(S, C).order >= centralizer(S, C).order


def test_isomorphism_search():
    assert group_isomorphic(dihedral_group(8).full(),
                            cyclic_group(8).full()) is None
    assert group_isomorphic(elementary_abelian_group(2, 2).full(),
                            cyclic_group(4).full()) is None
    iso = group_isomorphic(
        dihedral_group(8).full(),
        FiniteGroup(4, [(1, 2, 3, 0), (1, 0, 3, 2)]).full(),
    )
    assert iso is not None
    n = sum(1 for _ in isomorphisms(cyclic_group(6).full(),
                                    cyclic_group(6).full()))
    assert n == 2


def test_direct_product_ids_follow_factor_order():
    G, H = symmetric_group(3), cyclic_group(4)
    P = direct_product(G, H)
    assert P.order == G.order * H.order
    for i, g in enumerate(G.elements):
        for j, h in enumerate(H.elements):
            assert P.elements[i * H.order + j] == direct_sum(g, h)
    closed = FiniteGroup(P.degree, P.generators)
    assert closed.elements == P.elements


def test_direct_product_respects_group_cap(monkeypatch):
    S4 = symmetric_group(4)
    monkeypatch.setenv("FUSIONKIT_MAX_GROUP_ORDER", "100")
    with pytest.raises(GroupTooLarge):
        direct_product(S4, symmetric_group(4))
    assert direct_product(S4, cyclic_group(4)).order == 96


def test_semidirect_product_checks_group_cap_first(monkeypatch):
    C7, C3 = cyclic_group(7), cyclic_group(3)
    x = C7.generator_ids()[0]
    action = [[C7.elements[C7.power_ids(x, 2)]]]
    calls = Counter()

    def counted(*args, _real=perms.mul):
        calls["mul"] += 1
        return _real(*args)

    monkeypatch.setattr(perms, "mul", counted)
    monkeypatch.setenv("FUSIONKIT_MAX_GROUP_ORDER", "20")
    with pytest.raises(GroupTooLarge, match="FUSIONKIT_MAX_GROUP_ORDER=20"):
        semidirect_product(C7, C3, action)
    assert calls == {}
    monkeypatch.delenv("FUSIONKIT_MAX_GROUP_ORDER")
    assert semidirect_product(C7, C3, action).order == 21


def test_a_permutation_outside_the_group_is_a_value_error():
    C7 = cyclic_group(7)
    swap = perms.from_cycles(7, [(0, 1)])
    foreign = re.escape(f"{swap!r} is not an element of {C7!r}")
    with pytest.raises(ValueError, match=foreign):
        C7.id_of(swap)
    with pytest.raises(ValueError, match=foreign):
        subgroup_from_perms(C7, [swap])
    with pytest.raises(ValueError, match=foreign):
        semidirect_product(C7, cyclic_group(3), [[swap]])


def test_group_cap(monkeypatch):
    monkeypatch.setenv("FUSIONKIT_MAX_GROUP_ORDER", "10")
    with pytest.raises(GroupTooLarge):
        symmetric_group(4)
    monkeypatch.delenv("FUSIONKIT_MAX_GROUP_ORDER")
    assert symmetric_group(4).order == 24
    for bad in ("abc", "0", "-24", "2.5", " "):
        monkeypatch.setenv("FUSIONKIT_MAX_GROUP_ORDER", bad)
        with pytest.raises(ValueError) as err:
            symmetric_group(4)
        assert not isinstance(err.value, GroupTooLarge)
        assert "FUSIONKIT_MAX_GROUP_ORDER" in str(err.value)
        assert repr(bad) in str(err.value)
    monkeypatch.setenv("FUSIONKIT_MAX_GROUP_ORDER", "")
    assert symmetric_group(4).order == 24
    # the cap is checked per new element, not at the end of a coset:
    # SL(3,3) on its six generators would otherwise hold 1,080 and 5,184
    # elements when it raises
    for cap in (1000, 5000):
        monkeypatch.setenv("FUSIONKIT_MAX_GROUP_ORDER", str(cap))
        with pytest.raises(GroupTooLarge) as err:
            sl33_group()
        assert len(err.traceback[-1].locals["seen"]) == cap + 1


def _generator_lists(gens, degree):
    """`gens` as given, with a repeated generator, with the identity first,
    and with a redundant generator between the first two and at the end:
    Dimino's closure skips a generator that is already listed."""
    e = tuple(range(degree))
    yield gens
    yield gens + gens[:1]
    yield [e] + gens
    yield gens[:1] + [_mul(gens[0], gens[0])] + gens[1:] + [
        _mul(gens[0], gens[-1])]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_dimino_closure_matches_breadth_first_oracle(name):
    """The coset-by-coset closure lists the same sorted element tuple as
    the breadth-first closure it replaced, on the group and on a copy with
    its points relabelled, from every variant of the generator list."""
    G = GROUPS[name]()
    cap = max_group_order()
    for K in (G, relabelled(G, random.Random(f"closure {name}"))):
        want = tuple(sorted(oracle_groups.breadth_first_close(
            K.degree, K.generators, cap)))
        assert K.elements == want
        for gens in _generator_lists(K.generators, K.degree):
            assert FiniteGroup(K.degree, gens).elements == want


def test_dimino_cap_inside_a_coset(monkeypatch):
    """A cap that falls inside the second coset D*g of the last level that
    grows the group: the closure cuts that coset to the room left, so the
    raising frame holds cap + 1 elements of the group."""
    G = sl33_group()
    gens = G.generators
    orders = [len(oracle_groups.breadth_first_close(G.degree, gens[:i],
                                                    G.order))
              for i in range(len(gens) + 1)]
    i = max(k for k in range(1, len(gens) + 1) if orders[k] > orders[k - 1])
    m = orders[i - 1]
    cap = m + m // 2
    assert m < cap + 1 < 2 * m <= G.order
    monkeypatch.setenv("FUSIONKIT_MAX_GROUP_ORDER", str(cap))
    with pytest.raises(GroupTooLarge) as err:
        FiniteGroup(G.degree, gens)
    seen = err.traceback[-1].locals["seen"]
    assert len(seen) == cap + 1 and seen <= set(G.elements)
    with pytest.raises(GroupTooLarge):
        oracle_groups.breadth_first_close(G.degree, gens, cap)


def test_is_p_group_rejects_a_non_prime():
    """`is_p_group(G, 1)` looped forever and `is_p_group(G, 0)` divided by
    zero; both raise ValueError, in a child process whose timeout fails
    the test rather than hanging it."""
    S = sylow_p(symmetric_group(4).full(), 2)
    assert is_p_group(S, 2) and not is_p_group(S, 3)
    code = (
        "from fusionkit import symmetric_group, sylow_p\n"
        "from fusionkit.groups import is_p_group\n"
        "S = sylow_p(symmetric_group(4).full(), 2)\n"
        "for p in (1, 0):\n"
        "    try:\n"
        "        is_p_group(S, p)\n"
        "    except ValueError as err:\n"
        "        print(err)\n")
    src = str(pathlib.Path(fusionkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1 is not a prime", "0 is not a prime"]


SYLOW_GROUPS = {
    "S4": lambda: symmetric_group(4),
    "S5": lambda: symmetric_group(5),
    "S6": lambda: symmetric_group(6),
    "S7": lambda: symmetric_group(7),
    "A8": lambda: alternating_group(8),
    "SL(3,3)": sl33_group,
    "3^(1+2):2": extraspecial27_c2,
    # a p-group at p = 3
    "3^(1+2)": lambda: extraspecial_plus(3),
}


def _is_prime(n):
    return n > 1 and all(n % q for q in range(2, n))


@pytest.mark.parametrize("name", SYLOW_GROUPS)
def test_sylow_matches_normalizer_ascent(name):
    """The scan for the first usable element picks the subgroup that the
    ascent over the whole of N_G(H) picks, at every prime dividing |G| and
    at the least prime that does not (trivial p-part), on G and on two
    relabelled copies."""
    G = SYLOW_GROUPS[name]()
    primes = [p for p in range(2, G.order + 1)
              if G.order % p == 0 and _is_prime(p)]
    spare = next(p for p in range(2, G.order) if G.order % p
                 and _is_prime(p))
    for K in (G, relabelled(G, random.Random(f"{name}:1")),
              relabelled(G, random.Random(f"{name}:2"))):
        for p in primes + [spare]:
            P = sylow_p(K.full(), p)
            assert P.sorted_ids == oracle_groups.sylow_ascent(
                K.full(), p).sorted_ids, (K.name, p)
            assert (G.order // P.order) % p


def test_group_setup_kernel_calls(monkeypatch):
    """Enumerating a group makes no `perms.mul` call, and the Sylow scan
    stops at the first usable element rather than conjugating all of G."""
    calls = Counter()
    for kernel in ("mul", "conjugate"):
        original = getattr(perms, kernel)
        monkeypatch.setattr(
            perms, kernel,
            lambda *args, _f=original, _k=kernel: calls.update([_k]) or _f(
                *args))
    assert sl33_group().order == 5616
    assert calls["mul"] == 0
    G = alternating_group(8)
    calls.clear()
    assert sylow_p(G.full(), 2).order == 64
    # the normalizer of H over all of A8 at each step made 104,608
    assert calls["conjugate"] < 40_000


def test_hom_from_images_rejects_non_hom():
    G = symmetric_group(3)
    C3 = subgroup_generated(G, [G.index[(1, 2, 0)]])
    C2 = G.index[(1, 0, 2)]
    assert hom_from_images(C3, G, C3.generator_ids(), [C2]) is None


@settings(max_examples=30)
@given(st.sets(st.integers(min_value=0, max_value=23), max_size=3))
def test_generated_subgroups_close(seed):
    G = symmetric_group(4)
    H = subgroup_generated(G, seed)
    assert H.is_subgroup_closed()
    assert G.order % H.order == 0


@given(st.permutations(range(4)))
def test_abelian_and_exponent(p):
    G = cyclic_group(6)
    assert is_abelian(G.full())
    assert exponent(G.full()) == 6
    assert not is_abelian(symmetric_group(3).full())


def test_subgroup_is_one_instance_per_id_set():
    G = symmetric_group(4)
    S = sylow_p(G.full(), 2)
    assert Subgroup(G, S.ids) is S
    assert Subgroup(G, list(S.ids)) is Subgroup(G, S.ids)
    assert G.full() is G.full()
    assert copy.copy(S) is S
    # a copied or unpickled group interns its own subgroups
    for T in (copy.deepcopy(S), pickle.loads(pickle.dumps(S))):
        assert T.ambient is not G and T is Subgroup(T.ambient, S.ids)
    # the same ids in a separately built S4 name a subgroup of another group
    other = Subgroup(symmetric_group(4), S.ids)
    assert other is not S and other != S


def test_dropped_subgroups_and_their_ambient_are_freed_without_gc():
    gc.disable()
    try:
        G = symmetric_group(4)
        ids = frozenset(sylow_p(G.full(), 2).ids)
        H = Subgroup(G, ids)
        H.generator_ids()
        dropped = weakref.ref(H)
        del H
        assert dropped() is None
        assert ids not in G._subgroups
        H = Subgroup(G, ids)
        H.generator_ids()
        ambient = weakref.ref(G)
        del G, H
        assert ambient() is None
    finally:
        gc.enable()
