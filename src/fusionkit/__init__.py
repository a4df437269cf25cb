"""Saturated fusion systems over finite p-groups: construction,
classification, decomposition, and the product/quotient calculus."""

from .groups import (
    FiniteGroup,
    GroupHom,
    GroupTooLarge,
    Subgroup,
    all_subgroups,
    automorphisms,
    center,
    centralizer,
    exponent,
    group_isomorphic,
    hom_from_images,
    inner_automorphisms,
    is_abelian,
    isomorphisms,
    max_group_order,
    normalizer,
    quotient_group,
    subgroup_from_perms,
    subgroup_generated,
    sylow_p,
)
from .named import (
    abelian_group,
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    extraspecial_plus,
    semidirect_product,
    symmetric_group,
)
from .fusion import (
    FusionSystem,
    audit_axioms,
    aut_F,
    aut_S,
    equal_hom_tables,
    f_class_of_element,
    f_conjugates,
    generated_fusion,
    hom_set,
    hom_table_digest,
    inner_fusion,
    transporter_fusion,
)
from .classify import (
    SaturationReport,
    classifier_rows,
    cr_objects,
    fcr_objects,
    is_centric,
    is_fully_automised,
    is_fully_centralised,
    is_fully_normalised,
    is_radical,
    is_receptive,
    is_saturated,
    is_strongly_closed,
    out_F,
)
from .alperin import (
    AlperinDecomposition,
    DecompositionCheck,
    alperin_decompose,
    regenerate_from_fcr,
    verify_decomposition,
)
from .constructions import (
    MAX_ISO_SEARCH_ORDER,
    QuotientMap,
    WitnessReport,
    centralizer_subsystem,
    fusion_isomorphic,
    is_normal_in_F,
    main_theorem_witness,
    normalizer_subsystem,
    product_fusion,
    quotient_fusion,
)
from .rv import (
    FCR_PROFILES,
    OUT_ORDERS,
    RV_NAMES,
    RVDescriptor,
    build_rv,
    certify_rv,
    comparison_out_group,
    outer_group_matrices,
)
from .descriptors import (
    DescriptorError,
    load_json,
    parse_fusion_generators,
    parse_group_spec,
    parse_subgroup_spec,
    serialize_fusion_generators,
    serialize_group,
    serialize_subgroup,
)
from .report import Report, strip_timing

__version__ = "0.1.0"
