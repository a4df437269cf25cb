"""JSON descriptors for groups, fusion generators, and subgroup specs.

Groups are described by constructor trees (explicit permutation lists,
named constructions, direct and semidirect products).  Fusion generators
are element-index maps inside a declared ambient group.  Subgroups are
specified by generator permutations, never by internal indices, so spec
files stay meaningful independently of element enumeration order.
"""

from __future__ import annotations

import json

from . import named, perms
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    hom_from_images,
    subgroup_generated,
)


class DescriptorError(ValueError):
    """A group, fusion, or subgroup description that cannot be realized."""


def load_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DescriptorError(f"malformed JSON: {e}") from e


def _require(mapping, key, kind):
    if not isinstance(mapping, dict) or key not in mapping:
        raise DescriptorError(f"malformed {kind} descriptor: missing {key!r}")
    return mapping[key]


def _require_list(mapping, key, kind):
    value = _require(mapping, key, kind)
    if not isinstance(value, list):
        raise DescriptorError(f"malformed {kind} descriptor: {key!r} is not "
                              f"a list: {value!r}")
    return value


def _is_int(v) -> bool:
    """An id, point or order: JSON true and false are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _perm_from_json(row, degree=None):
    if not isinstance(row, (list, tuple)) or not all(map(_is_int, row)):
        raise DescriptorError(f"generator is not a permutation list: {row!r}")
    p = tuple(row)
    if (degree is not None and len(p) != degree) or not perms.is_perm(p):
        raise DescriptorError(f"generator is not a bijection: {row!r}")
    return p


def parse_group_spec(spec) -> FiniteGroup:
    """Build the group described by a descriptor (dict or JSON text)."""
    if isinstance(spec, (str, bytes)):
        spec = load_json(spec)
    kind = _require(spec, "type", "group")
    if kind == "permutation":
        degree = _require(spec, "degree", "group")
        if not _is_int(degree) or degree < 1:
            raise DescriptorError(f"bad permutation degree {degree!r}")
        gens = [
            _perm_from_json(row, degree)
            for row in _require_list(spec, "generators", "group")
        ]
        return FiniteGroup(degree, gens, name="perm")
    if kind == "named":
        return _parse_named(spec)
    if kind == "direct_product":
        factors = _require_list(spec, "factors", "group")
        if not factors:
            raise DescriptorError("direct_product needs at least one factor")
        return named.direct_product(*[parse_group_spec(f) for f in factors])
    if kind == "semidirect":
        base = parse_group_spec(_require(spec, "base", "group"))
        actor = parse_group_spec(_require(spec, "actor", "group"))
        action = _require_list(spec, "action", "group")
        if len(action) != len(actor.generators):
            raise DescriptorError(
                "semidirect action needs one row per actor generator"
            )
        rows = []
        for row in action:
            if not isinstance(row, list) or len(row) != len(base.generators):
                raise DescriptorError(
                    "semidirect action row needs one image per base generator"
                )
            parsed = [_perm_from_json(p, base.degree) for p in row]
            for p in parsed:
                if p not in base.index:
                    raise DescriptorError(
                        f"action image {list(p)!r} is not a base element"
                    )
            rows.append(parsed)
        return named.semidirect_product(base, actor, rows)
    raise DescriptorError(f"unknown group constructor {kind!r}")


_NAMED_BUILDERS = {
    "cyclic": (named.cyclic_group, ("n",)),
    "dihedral": (named.dihedral_group, ("order",)),
    "symmetric": (named.symmetric_group, ("n",)),
    "alternating": (named.alternating_group, ("n",)),
    "elementary_abelian": (named.elementary_abelian_group, ("p", "rank")),
    "abelian": (named.abelian_group, ("invariants",)),
    "extraspecial_plus": (named.extraspecial_plus, ("p",)),
}


def _parse_named(spec) -> FiniteGroup:
    name = _require(spec, "name", "group")
    if not isinstance(name, str) or name not in _NAMED_BUILDERS:
        raise DescriptorError(f"unknown named group {name!r}")
    builder, keys = _NAMED_BUILDERS[name]
    args = [_require(spec, k, "group") for k in keys]
    for k, v in zip(keys, args):
        if k == "invariants":  # a list of cyclic orders
            ok = isinstance(v, list) and all(map(_is_int, v))
        else:
            ok = _is_int(v)
        if not ok:
            raise DescriptorError(f"bad named group argument {k!r}: {v!r}")
    return builder(*args)


def serialize_group(G: FiniteGroup) -> dict:
    return {
        "type": "permutation",
        "degree": G.degree,
        "generators": [list(g) for g in G.generators],
    }


# --------------------------------------------------------------------------
# fusion generators: element-index maps inside a declared ambient S

def parse_fusion_generators(S: Subgroup, data) -> list[GroupHom]:
    """Decode a generator list (each entry {"domain_gens": [...ids...],
    "images": [...ids...]}) into verified injective homomorphisms."""
    if isinstance(data, dict):
        data = _require(data, "generators", "fusion")
    if not isinstance(data, list):
        raise DescriptorError("malformed fusion descriptor: expected a list")
    amb = S.ambient
    out = []
    for entry in data:
        gen_ids = _require_list(entry, "domain_gens", "fusion")
        image_ids = _require_list(entry, "images", "fusion")
        if len(gen_ids) != len(image_ids):
            raise DescriptorError(
                "fusion generator has mismatched domain_gens/images lengths"
            )
        for i in gen_ids + image_ids:
            if not _is_int(i) or not 0 <= i < amb.order:
                raise DescriptorError(f"element index {i!r} out of range")
            if i not in S.ids:
                raise DescriptorError(
                    f"element index {i} lies outside the declared ambient"
                )
        domain = subgroup_generated(amb, gen_ids)
        h = hom_from_images(domain, amb, gen_ids, image_ids)
        if h is None:
            raise DescriptorError(
                f"fusion generator {gen_ids} -> {image_ids} is not a "
                "homomorphism"
            )
        if not h.is_injective():
            raise DescriptorError(
                f"fusion generator {gen_ids} -> {image_ids} is not injective"
            )
        out.append(h)
    return out


def serialize_fusion_generators(F) -> list[dict]:
    out = []
    for m in F.generating_morphisms():
        gens = m.domain.generator_ids()
        pos = m.domain.positions
        out.append({
            "domain_gens": list(gens),
            "images": [m.images[pos[g]] for g in gens],
        })
    return out


# --------------------------------------------------------------------------
# subgroup specs: generator permutations inside the ambient group

def parse_subgroup_spec(S: Subgroup, data) -> Subgroup:
    """Decode a list of generator permutations into a subgroup of S."""
    if isinstance(data, dict):
        data = _require(data, "generators", "subgroup")
    if not isinstance(data, list):
        raise DescriptorError(
            "malformed subgroup descriptor: expected a list of permutations"
        )
    amb = S.ambient
    ids = set()
    for row in data:
        p = _perm_from_json(row, amb.degree)
        i = amb.index.get(p)
        if i is None:
            raise DescriptorError(
                f"permutation {row!r} is not an element of the ambient group"
            )
        if i not in S.ids:
            raise DescriptorError(
                f"permutation {row!r} lies outside the declared ambient"
            )
        ids.add(i)
    sub = subgroup_generated(amb, ids)
    if not sub.ids <= S.ids:
        raise DescriptorError("subgroup spec does not close inside S")
    return sub


def serialize_subgroup(Q: Subgroup) -> list[list[int]]:
    return [list(Q.ambient.elements[i]) for i in Q.generator_ids()]
