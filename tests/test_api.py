"""The public names exported from the package, and what importing it loads."""

import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import g2calc
from support import package_env

PUBLIC_API = {
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
}


def test_exported_names_are_pinned():
    assert len(g2calc.__all__) == len(PUBLIC_API)
    assert set(g2calc.__all__) == PUBLIC_API


def test_every_exported_name_resolves():
    for name in g2calc.__all__:
        assert getattr(g2calc, name) is not None


# The exported functions, and the public methods and properties of exported
# classes ("Class.method"), that `g2calc verify` never calls.  Each function is
# the guarded public entry to arithmetic that a suite runs through a private
# helper, adding input checks only, or one a benchmark workload calls; each
# method has its own reason.
ENTRY_POINTS = {
    "solution_report": "thmC1 runs its body, _solution_report, on each solution",
    "linearization_density": "thmC1 runs its routes, _induced_duals and _density_routes",
    "symbol_bound": "dhym runs its routes, _symbol_routes",
    "is_solution": "thmC1 checks each Cartan flux by its rule, _solves at SOLUTION_TOL",
    "induced_phi": "thmC1 reads its pair through _induced in each solution report",
    "scalar_factor": "thmC1 reads its factor, _factor, in each solution report",
    "zero_phase_flux": "the product suite runs _zero_phase_pair and _zero_phase_fluxes",
    "assemble2": "the fresh-structures benchmark workload calls it",
    "project3": "the fresh-structures benchmark workload calls it",
    "KForm.coefficient": "the independent coefficient reader the tests check forms with",
    "KForm.to_dict": "a witness serialises its forms with it, so only a failing check reaches it",
    "NormalForm.eta": "the descendant metric of the dHYM moduli count, which has no suite yet",
    "Campaign.run": "the benchmark workloads run campaigns through it",
}


def test_every_exported_function_is_reached():
    # In a fresh interpreter: after other tests, a warm cache would answer for
    # the functions that build it, and the campaign would not call them.
    code = ("import json, support\n"
            "print(json.dumps(support.unreached_exports("
            "['verify', '--samples', '60', '--format', 'json'])))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=False, env=package_env(), cwd=Path(__file__).resolve().parent)
    assert proc.returncode == 0, proc.stderr
    status, unreached = json.loads(proc.stdout)
    assert status == 0
    missed = sorted(set(unreached) - set(ENTRY_POINTS))
    assert not missed, f"exported functions and methods that verify never calls: {missed}"
    stale = sorted(set(ENTRY_POINTS) - set(unreached))
    assert not stale, f"entry points that verify calls or the package does not export: {stale}"


def test_readme_python_examples_run():
    # So that an example cannot name a function the package no longer has.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


# The only public function that takes a tolerance or bound: correspondence_check,
# which the product suite calls at the Campaign's tol_identity.  Every other
# check reads a module constant at call time.  Classes are left out: Campaign's
# own fields are the settable tolerances.
TOLERANCE_PARAMETERS = {"tol", "tol_identity", "bound"}
SETTABLE_TOLERANCES = {
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
