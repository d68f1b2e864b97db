"""Exact local algebra for matrix singularities.

Sparse rational polynomials, global and local standard bases, determinantal
and Pfaffian linear algebra, the three kind-specific free resolutions, and
the singularity invariants built on top: Milnor numbers, Tjurina numbers
along several independent routes, Betti numbers of pulled-back
resolutions, and mechanical checks of the identities relating them.
"""

from .poly import (
    Poly,
    SubstitutionMap,
    default_names,
    format_poly,
    partial,
    substitute,
    translate,
)
from .groebner import (
    GLOBAL,
    INFINITE,
    LOCAL,
    MemberResult,
    ModuleBasis,
    MonomialOrder,
    StepLimitExceeded,
    groebner_basis,
    member,
    quotient_dimension,
    set_step_limit,
    syzygies,
    syzygies_of_basis,
)
from .matalg import (
    KINDS,
    MatrixFamily,
    PolyMatrix,
    flatten,
    generic_family,
    minors_ideal,
    space_dim,
    sub_pfaffian_matrix,
    unflatten,
)
from .complexes import (
    FreeComplex,
    gn_complex,
    homology_dimension,
    homology_profile,
    jozefiak_complex,
    jp_complex,
    kind_complex,
    koszul,
    pullback,
    verify_complex,
)
from .invariants import (
    IDENTITIES,
    M0,
    CheckRecord,
    InvariantReport,
    analyze,
    betti_numbers,
    corank_at_origin,
    der_log_V,
    der_log_f,
    function_presentation,
    milnor_number,
    t1_kf,
    t1_kv,
    tangent_module,
    tau_matrix,
    tjurina_number_function,
    verify_identity,
)
from .families import (
    FamilySpec,
    ParseError,
    catalog,
    catalog_names,
    parse_family,
    parse_poly,
    print_family,
)

__version__ = "1.0.0"
