"""Element arithmetic goes through FiniteGroup.

Only `groups` (which owns FiniteGroup), `named` (which builds groups from
permutations) and `perms` itself may use the permutation kernels
`perms.mul`, `perms.left_mul`, `perms.conjugate`, `perms.power` and
`perms.inverse`; every other module works on element ids. Inside `groups`
only FiniteGroup's own methods use them, so the choice between the
S-local table and the permutation tuples is made in one place. The modules that never touch
permutation tuples do not import `perms` at all. Likewise the one
breadth-first search over generator images, `fusion.word_search` and
the resumable `fusion.word_steps` it runs, is named only in `fusion` and
`alperin`: `classify`, `rv` and `constructions` close over automorphism
tables through `fusion.automorphism_closure`.

`groups.GroupHom` is the one class that holds a morphism's image table: no
other module defines a class with an `images` slot. A fusion system stores
a morphism by its images of the domain's generators, and each of its hom
rules (transporter, generated, product, quotient, normalizer) returns
Hom(Q, S) as a plain tuple of such vectors, the `hom` memo entry of Q.
Every kind of memo
entry is named below: those that hold morphisms as such vectors, the
transport of generated systems (vectors of the searched object's
generators, and each other member's psi^-1 as a vector), those that hold
no morphism, and the few stated exceptions that keep whole tables. Only
`fusion._memoised`, which checks the subgroup's ambient group, keys an
entry by a subgroup, and only `FusionSystem.cached` touches the memo.

`groups.CayleyTree` and its compiled walks are read through
`FusionSystem.images_at` alone: outside `groups`, `named` and `fusion` no
module names the tree, and `classify` builds no `quotient_group`. No
module of the package imports a name it never uses, and every CLI
command has a job in `test_cli`. `build_rv` and `certify_rv` hold no
`assert` statement, so their checks stay under `python -O`.
"""

import ast
import pathlib

import pytest

from fusionkit import (
    alperin_decompose,
    build_rv,
    fcr_objects,
    is_saturated,
    normalizer_subsystem,
    out_F,
    product_fusion,
    quotient_fusion,
    regenerate_from_fcr,
    sylow_p,
    symmetric_group,
    transporter_fusion,
    verify_decomposition,
)
from fusionkit.cli import _HANDLERS, _witness_pairs_p3

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fusionkit"
KERNELS = {"mul", "left_mul", "conjugate", "power", "inverse"}
KERNEL_USERS = {"groups.py", "named.py", "perms.py"}
NO_PERMS_IMPORT = ["fusion.py", "classify.py", "alperin.py", "rv.py", "cli.py",
                   "constructions.py"]


def _tree(name):
    return ast.parse((SRC / name).read_text(), filename=name)


def _kernel_uses(tree):
    """Line numbers of `perms.<kernel>` references and kernel imports."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in KERNELS
                and isinstance(node.value, ast.Name)
                and node.value.id == "perms"):
            yield node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[-1] == "perms"
              and any(a.name in KERNELS for a in node.names)):
            yield node.lineno


def _imports_perms(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "perms":
                return True
            if any(a.name == "perms" for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "perms" for a in node.names):
                return True
    return False


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in SRC.glob("*.py") if p.name not in KERNEL_USERS),
)
def test_no_permutation_kernel_outside_groups(name):
    assert list(_kernel_uses(_tree(name))) == []


@pytest.mark.parametrize("name", NO_PERMS_IMPORT)
def test_id_only_modules_do_not_import_perms(name):
    assert not _imports_perms(_tree(name))


def test_groups_uses_kernels_only_in_finitegroup_methods():
    tree = _tree("groups.py")
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "FiniteGroup":
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    allowed.update(_kernel_uses(method))
    assert allowed, "FiniteGroup no longer uses the kernels at all"
    assert sorted(set(_kernel_uses(tree)) - allowed) == []


WORD_SEARCH_USERS = {"fusion.py", "alperin.py"}


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in SRC.glob("*.py") if p.name not in WORD_SEARCH_USERS),
)
def test_word_search_is_named_only_in_fusion_and_alperin(name):
    assert [f"{line}:{n}" for line, n in _names(_tree(name))
            if n in ("word_search", "word_steps")] == []


@pytest.mark.parametrize("name", ["classify.py", "constructions.py", "rv.py"])
def test_automorphism_tables_close_through_automorphism_closure(name):
    assert "automorphism_closure" in {n for _line, n in _names(_tree(name))}


def _slot_names(cls):
    """The names listed in a class body's `__slots__` assignment."""
    for node in cls.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in node.targets)):
            value = node.value
            elts = value.elts if isinstance(value, (ast.Tuple, ast.List,
                                                    ast.Set)) else [value]
            for e in elts:
                if isinstance(e, ast.Constant):
                    yield e.value


def test_grouphom_is_the_only_morphism_class():
    holders = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.ClassDef) and "images" in _slot_names(node)
    ]
    assert holders == ["groups.py:GroupHom"]


def test_fusionsystem_has_no_subclass():
    """Every fusion system is one FusionSystem with its own hom rule."""
    subclasses = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.ClassDef)
        and any(getattr(b, "id", getattr(b, "attr", None)) == "FusionSystem"
                for b in node.bases)
    ]
    assert subclasses == []


def test_no_subgroup_is_looked_up_again_by_its_ids():
    """`Subgroup(G, ids)` is the one instance on an id set, so no module
    swaps a subgroup for the instance on its own ids."""
    lookups = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) == "subgroup"
             or getattr(node.func, "id", None) == "Subgroup")
        and node.args and isinstance(node.args[-1], ast.Attribute)
        and node.args[-1].attr == "ids"
    ]
    assert lookups == []


def _inside(tree, name):
    """The nodes of every function called `name` in `tree`."""
    return {id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == name
            for node in ast.walk(fn)}


def test_only_memoised_keys_memo_entries_by_subgroup():
    """`fusion._memoised` is the one maker of memo keys that name a
    subgroup, and it checks the subgroup's ambient group on every call,
    hit or miss. Every other `.cached(` key is a tuple written out at the
    call that names no subgroup's ids: it names an order, an element or
    nothing."""
    bad = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path.name)
        exempt = _inside(tree, "_memoised")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and id(node) not in exempt
                    and getattr(node.func, "attr", None) == "cached"):
                key = node.args[0]
                if not isinstance(key, ast.Tuple) or any(
                        isinstance(n, ast.Attribute)
                        and n.attr in ("ids", "sorted_ids")
                        for n in ast.walk(key)):
                    bad.append(f"{path.name}:{node.lineno}")
    assert bad == []


def test_only_cached_touches_the_memo():
    """`FusionSystem.cached` is the one reader and writer of the memo,
    which `FusionSystem.__init__` creates empty."""
    touches = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path.name)
        allowed = _inside(tree, "cached")
        for init in ast.walk(tree):
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                allowed |= {
                    id(node.target) for node in init.body
                    if isinstance(node, ast.AnnAssign)
                    and isinstance(node.value, ast.Dict)
                    and not node.value.keys
                }
        touches += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_memo"
            and id(node) not in allowed
        ]
    assert touches == []


TREE_NAMES = {"cayley_tree", "CayleyTree", "TreePlan"}
TREE_USERS = {"groups.py", "named.py", "fusion.py"}


def _names(tree):
    """(line, name) of every name a module reads, sets or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in SRC.glob("*.py") if p.name not in TREE_USERS),
)
def test_morphisms_are_read_through_images_at(name):
    """Only `groups`, which owns the Cayley tree, `named`, which builds
    semidirect products on it, and `fusion`, whose `images_at` reads every
    stored morphism, name the tree or its plans."""
    assert [f"{line}:{n}" for line, n in _names(_tree(name))
            if n in TREE_NAMES] == []


def test_classify_builds_no_quotient_group():
    """`classify` composes automizers as generator-image vectors alone:
    Out_F(P) acts on the cosets of Inn(P) with no `groups.quotient_group`
    of a permutation group."""
    assert [line for line, n in _names(_tree("classify.py"))
            if n == "quotient_group"] == []


@pytest.mark.parametrize("func", ["build_rv", "certify_rv"])
def test_rv_checks_survive_python_O(func):
    """`python -O` strips `assert` statements, so every check of a built
    rv system raises `AssertionError` explicitly."""
    [node] = [n for n in _tree("rv.py").body
              if isinstance(n, ast.FunctionDef) and n.name == func]
    assert [n.lineno for n in ast.walk(node) if isinstance(n, ast.Assert)] == []


def _unused_imports(tree):
    """The names a module imports and never reads."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{line}:{n}" for n, line in imported.items()
                  if n not in used)


@pytest.mark.parametrize(
    "name", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"),
)
def test_no_module_imports_a_name_it_never_uses(name):
    assert _unused_imports(_tree(name)) == []


def test_every_cli_command_runs_in_test_cli():
    """Each command of `cli._HANDLERS` is the first string of some argv
    list literal in tests/test_cli.py, so every handler runs there."""
    tests = pathlib.Path(__file__).resolve().parent / "test_cli.py"
    tree = ast.parse(tests.read_text(), filename=tests.name)
    run = {node.elts[0].value for node in ast.walk(tree)
           if isinstance(node, ast.List) and node.elts
           and isinstance(node.elts[0], ast.Constant)
           and isinstance(node.elts[0].value, str)}
    assert sorted(set(_HANDLERS) - run) == []


def _s6():
    G = symmetric_group(6)
    return transporter_fusion(G, sylow_p(G.full(), 2), 2)


def _product():
    _n1, F1, _n2, F2 = _witness_pairs_p3()[3]
    return product_fusion(F1, F2)


# memo kinds that hold morphisms as vectors, keyed by the domain last:
# each vector has one entry per generator of the domain
VECTOR_KINDS = {"hom", "vector_set", "aut_f_vectors"}
# memo kinds that hold no morphism: subgroups, id sets, element classes,
# and the climbs of `extension_chain` (subgroups and compiled walks)
PLAIN_KINDS = {"objects", "normalizer_of", "centralizer_of",
               "objects_through", "class_members", "conjugacy_classes",
               "f_classes", "cr_classes", "fcr_objects", "extension_chain"}
# the class record and the transport of generated systems: `transport`,
# keyed by an order, maps each object whose class was recorded to (the
# object R it was recorded from, psi: R -> it) in every system, and
# `transported`, keyed by a member Q' of a generated system that is read
# off its searched member R, is (R, the vector of psi^-1 on Q''s
# generators, and the two compiled walks that carry a vector across psi)
TRANSPORT_KINDS = {"transport", "transported"}
# the stated exceptions, which keep whole tables
TABLE_KINDS = {
    # the transporter rule's input: c_g on D_g, one dict per distinct pair
    "conjugation_pairs",
    # Out_F(P) as a permutation group, built only when `out_F` is asked
    # for; for abelian P it is Aut_F(P) on the |P| points of P
    "out_F",
    # the generated rule's input: each seed map and its inverse as a dict
    # on its domain, and c_t on S for each generator t of S, in same-domain
    # runs that every search reads
    "seed_runs",
    # every fcr automorphism as a dict, grouped into one run of moves per
    # stretch of consecutive automorphisms of one object: the Alperin search
    # reads each at any element of its object
    "alperin_moves",
}


@pytest.mark.parametrize("name", ["rv1", "S6@2", "3^(1+2):2 x S3"])
def test_memo_stores_morphisms_as_generator_images(name):
    # a system of its own: another test may have asked for its Out_F
    F = {"rv1": lambda: build_rv("rv1"), "S6@2": _s6,
         "3^(1+2):2 x S3": _product}[name]()
    assert is_saturated(F).verdict
    fcr_objects(F)
    # radicality is decided on vectors, so no Out_F group is built until
    # one is asked for
    assert [key for key in F._memo if key[0] == "out_F"] == []
    out_F(F, F.S)
    for Q in F.objects():
        F.aut_f_vectors(Q)
        F.f_conjugates(Q)
    Q = max(F.objects(), key=lambda Q: (Q.order < F.S.order, Q.order))
    F.f_class_of_element(max(Q.ids))
    phi = F.hom_to_S(Q)[-1]
    verify_decomposition(F, alperin_decompose(F, phi), phi)

    def width(ids):
        return len(F.subgroup(ids).generator_ids())

    kinds = set()
    for key, value in F._memo.items():
        kinds.add(key[0])
        if key[0] in VECTOR_KINDS:
            assert {len(v) for v in value} <= {width(key[-1])}, key[0]
        elif key[0] == "centralizer_cosets":
            # Aut_S(Q): (r, coset, conjugation by r on Q's generators)
            assert {len(vec) for _r, _coset, vec in value} == {
                width(key[1])}
        elif key[0] == "extension_index":
            # the restrictions to Q of the morphisms out of N, as vectors
            # of Q's generators
            assert {len(k) for k in value} <= {width(key[2])}
        elif key[0] == "class_members":
            # the F-class recorded from the keyed object, which it holds
            assert key[1] in {R.ids for R in value}
            assert value == tuple(sorted(value, key=lambda R: R.sorted_ids))
        elif key[0] == "transport":
            # {object of this order: (recorded R, psi of R onto it)}
            assert {R.order for R, _psi in value.values()} <= {key[1]}
            assert value.keys() <= {R.ids for R in F.objects()}
            for R, psi in value.values():
                assert len(psi) == width(R.ids)
        elif key[0] == "transported":
            # a member other than the searched one reads R's hom set
            # through psi
            R, inverse, to_r, from_r = value
            assert (R.order == len(key[1]) and R.ids != key[1]
                    and R.ids <= F.S.ids)
            assert (frozenset(inverse) <= R.ids
                    and len(inverse) == width(key[1]))
            assert len(to_r.outs) == width(R.ids)
            assert len(from_r.outs) == len(inverse)
        elif key[0] == "alperin_search":
            # the Alperin search from the domain: {vector: (previous
            # vector, move)} so far, and the suspended search
            parents, search = value
            assert {len(v) for v in parents} == {width(key[1])}
            assert all(len(link[0]) == width(key[1])
                       for link in parents.values() if link is not None)
            assert iter(search) is search
        else:
            assert key[0] in PLAIN_KINDS | TABLE_KINDS, key[0]
    assert VECTOR_KINDS | {"extension_index", "centralizer_cosets",
                           "alperin_search"} <= kinds
    assert {"out_F", "alperin_moves"} <= kinds & TABLE_KINDS
    assert ("seed_runs" in kinds) == (F.backend == "generated")
    assert kinds & TRANSPORT_KINDS == (
        TRANSPORT_KINDS if F.backend == "generated" else {"transport"})


def _quotient():
    F = _product()
    return quotient_fusion(F, F.factor_embeddings[1])[0]


def _normalizer():
    F = _s6()
    return normalizer_subsystem(F, min(
        (Q for Q in F.objects() if Q.order == 4), key=lambda Q: Q.sorted_ids))


RULE_SYSTEMS = {
    "transporter": _s6,
    "generated": lambda: regenerate_from_fcr(_s6()),
    "product": _product,
    "quotient": _quotient,
    "normalizer": _normalizer,
}


@pytest.mark.parametrize("rule", sorted(RULE_SYSTEMS))
def test_hom_rules_return_plain_vectors(rule):
    """The `hom` memo entry of each object is what `hom_vectors` returns:
    a non-empty tuple of vectors, each a tuple of ids of S with one entry
    per generator of the object, and nothing else."""
    F = RULE_SYSTEMS[rule]()
    for Q in F.objects():
        vectors = F.hom_vectors(Q)
        assert F._memo[("hom", Q.ids)] is vectors
        assert type(vectors) is tuple and vectors
        width = len(Q.generator_ids())
        for vec in vectors:
            assert type(vec) is tuple and len(vec) == width
            assert all(type(x) is int for x in vec)
            assert F.S.ids.issuperset(vec)
