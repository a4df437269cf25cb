"""Element arithmetic goes through FiniteGroup.

Only `groups` (which owns FiniteGroup), `named` (which builds groups from
permutations) and `perms` itself may use the permutation kernels
`perms.mul`, `perms.conjugate`, `perms.power` and `perms.inverse`; every
other module works on element ids. Inside `groups` only FiniteGroup's own
methods use them, so the choice between the S-local table and the
permutation tuples is made in one place. The modules that never touch
permutation tuples do not import `perms` at all.

`groups.GroupHom` is the one class that holds a morphism's image table: no
other module defines a class with an `images` slot.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fusionkit"
KERNELS = {"mul", "conjugate", "power", "inverse"}
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
