"""The public names exported from the package, and what importing it loads."""

import inspect
import subprocess
import sys

import g2calc
from support import package_env

PUBLIC_API = {
    "KForm", "LinearMap", "Metric", "euclidean_metric", "flat", "form_inner",
    "form_norm", "hodge", "interior", "multi_indices", "pullback",
    "rel_residual", "sharp", "sharp2", "wedge",
    "G2Data", "TwoFormSplit", "assemble2", "g2_bundle", "identity_battery",
    "lambda14_wedge_norm", "metric_from_three_form", "project2", "project3",
    "standard_g2",
    "DdtReport", "cartan_solutions", "cartan_solve", "cartan_two_form",
    "cube_norm_bound", "ddt_residual", "ddt_residual_decomposed", "graph_map",
    "induced_phi", "is_solution", "linearization_density", "norm_bound_check",
    "orthogonality_check", "reformulation_residual", "scalar_factor",
    "solution_report", "wedge_injectivity",
    "DhymReport", "HermitianPoint", "NormalForm", "dhym_report",
    "j_duality_residual", "normal_form", "one_one_residual", "pq_project",
    "radius_angle", "standard_kahler", "symbol_bound",
    "ProductReport", "SU3Point", "correspondence_check", "dx_split", "lift",
    "product_g2", "product_phi", "product_psi", "standard_su3",
    "zero_phase_flux",
    "CohomologySummary", "ModeBlock", "adjoint_check", "harmonic_dim",
    "harmonic_dims", "mode_block",
    "SUITE_IDS", "Campaign", "Report", "all_passed", "emit",
}


def test_exported_names_are_pinned():
    assert len(g2calc.__all__) == len(PUBLIC_API)
    assert set(g2calc.__all__) == PUBLIC_API


def test_every_exported_name_resolves():
    for name in g2calc.__all__:
        assert getattr(g2calc, name) is not None


# The only public functions that take a tolerance or bound, and which: each is
# reached by a Campaign tolerance or mirrors one that is.  Every other check
# reads a module constant at call time.  Classes are left out: Campaign's own
# fields are the settable tolerances.
TOLERANCE_PARAMETERS = {"tol", "tol_identity", "bound"}
SETTABLE_TOLERANCES = {
    "is_solution": {"tol"},
    "linearization_density": {"tol_identity"},
    "symbol_bound": {"tol_identity"},
    "correspondence_check": {"tol"},
}


def test_only_campaign_reached_functions_take_a_tolerance():
    found = {}
    for name in g2calc.__all__:
        obj = getattr(g2calc, name)
        if inspect.isfunction(obj):
            params = TOLERANCE_PARAMETERS & set(inspect.signature(obj).parameters)
            if params:
                found[name] = params
    assert found == SETTABLE_TOLERANCES


def test_standard_structures_do_not_load_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    code = (
        "import sys\n"
        "import g2calc\n"
        "g2calc.standard_g2()\n"
        "for n in (1, 2, 3):\n"
        "    g2calc.standard_kahler(n)\n"
        "g2calc.standard_su3()\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=False, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
