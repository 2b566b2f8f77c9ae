"""Exterior calculus for deformed connections on flat model geometries.

The package certifies, numerically and at desk scale, the algebraic
identities behind the deformed equations on seven-manifolds with a
cross-product structure and their even-dimensional counterparts: type
decompositions of fluxes, diagonal solution families, transport of the
ambient structure, norm bounds, a dimensional reduction to three complex
dimensions, and harmonic mode counts on the flat torus.
"""

from .forms import (
    KForm,
    LinearMap,
    Metric,
    euclidean_metric,
    flat,
    form_inner,
    form_norm,
    hodge,
    interior,
    multi_indices,
    pullback,
    rel_residual,
    sharp2,
    wedge,
)
from .g2 import (
    G2Data,
    TwoFormSplit,
    assemble2,
    g2_bundle,
    identity_battery,
    metric_from_three_form,
    project2,
    project3,
    standard_g2,
)
from .ddt import (
    DdtReport,
    cartan_solve,
    cartan_two_form,
    cube_norm_bound,
    ddt_residual,
    ddt_residual_decomposed,
    graph_map,
    induced_phi,
    is_solution,
    linearization_density,
    norm_bound_check,
    reformulation_residual,
    scalar_factor,
    solution_report,
    wedge_injectivity,
)
from .dhym import (
    DhymReport,
    HermitianPoint,
    NormalForm,
    dhym_report,
    j_duality_residual,
    normal_form,
    one_one_residual,
    pq_project,
    radius_angle,
    standard_kahler,
    symbol_bound,
)
from .product import (
    ProductReport,
    SU3Point,
    correspondence_check,
    lift,
    product_g2,
    product_phi,
    product_psi,
    standard_su3,
    zero_phase_flux,
)
from .torus import (
    CohomologySummary,
    adjoint_check,
    harmonic_dim,
    harmonic_dims,
)
from .suites import SUITE_IDS, Campaign, Report, all_passed, emit

__version__ = "0.1.0"

__all__ = [
    "KForm", "LinearMap", "Metric", "euclidean_metric", "flat", "form_inner",
    "form_norm", "hodge", "interior", "multi_indices", "pullback",
    "rel_residual", "sharp2", "wedge",
    "G2Data", "TwoFormSplit", "assemble2", "g2_bundle", "identity_battery",
    "metric_from_three_form", "project2", "project3", "standard_g2",
    "DdtReport", "cartan_solve", "cartan_two_form", "cube_norm_bound",
    "ddt_residual", "ddt_residual_decomposed", "graph_map", "induced_phi",
    "is_solution", "linearization_density", "norm_bound_check",
    "reformulation_residual", "scalar_factor", "solution_report",
    "wedge_injectivity",
    "DhymReport", "HermitianPoint", "NormalForm", "dhym_report",
    "j_duality_residual", "normal_form", "one_one_residual", "pq_project",
    "radius_angle", "standard_kahler", "symbol_bound",
    "ProductReport", "SU3Point", "correspondence_check", "lift",
    "product_g2", "product_phi", "product_psi", "standard_su3",
    "zero_phase_flux",
    "CohomologySummary", "adjoint_check", "harmonic_dim", "harmonic_dims",
    "SUITE_IDS", "Campaign", "Report", "all_passed", "emit",
]
