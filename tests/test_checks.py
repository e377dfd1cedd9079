"""The property suite itself: ``run_suite`` runs every case and passes, and
each property fails once the view it checks is made wrong."""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import imdot.families
import imdot.imd
import imdot.ot
import imdot.uncertainty
from imdot import checks
from imdot.checks import run_suite

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def benchmark_suite_cases():
    """``SUITE_CASES`` of the benchmark's ``oracle_views`` workload, read
    without importing the benchmark."""
    tree = ast.parse(WORKLOADS.read_text())
    (cases,) = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SUITE_CASES" for t in node.targets)]
    return list(cases)


def test_run_suite_runs_every_case_and_passes():
    results = run_suite("all")
    assert [f"{r.suite}/{r.name}" for r in results] == benchmark_suite_cases()
    assert [r for r in results if not r.passed] == []


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("everything")


# Each fault wraps the original view and returns a wrong one.

def plus(delta):
    """A float-valued view moved by ``delta``."""
    return lambda view: lambda *a, **k: view(*a, **k) + delta


def first_plus(delta):
    """A ``(value, extra)`` view with the value moved by ``delta``."""
    def fault(view):
        def wrong(*a, **k):
            value, extra = view(*a, **k)
            return value + delta, extra
        return wrong
    return fault


def field_plus(field, delta):
    """A dataclass-valued view with ``field`` moved by ``delta``."""
    def fault(view):
        def wrong(*a, **k):
            result = view(*a, **k)
            return replace(result, **{field: getattr(result, field) + delta})
        return wrong
    return fault


def negated_value(view):
    def wrong(*a, **k):
        result = view(*a, **k)
        return replace(result, value=-result.value)
    return wrong


def global_growing_in_beta(view):
    def wrong(target, source, cost, beta):
        value, plan = view(target, source, cost, beta)
        return value + 1e-3 * beta, plan
    return wrong


def sgu_growing_with_hypotheses(view):
    def wrong(g, hyp_target, *rest):
        value, best = view(g, hyp_target, *rest)
        return value + 1e-2 * len(hyp_target), best
    return wrong


def heavier_reference(view):
    def wrong(base, conditionals, coefficients):
        return view(base, conditionals, 2.0 * np.asarray(coefficients, dtype=float))
    return wrong


FAULTS = [
    ("imd_nonneg_triangle_indicators", imdot.imd, "imd_bruteforce", negated_value),
    ("imd_nonneg_triangle_grid", imdot.imd, "imd_bruteforce", negated_value),
    ("imd_asymmetry_witness", imdot.imd, "imd_bruteforce", field_plus("value", 1e-3)),
    ("imd_null_characterization", imdot.imd, "imd_bruteforce",
     field_plus("value", 1e-3)),
    ("imd_tv_matches_bruteforce", imdot.imd, "imd_tv_closed_form", plus(1e-3)),
    ("imd_f0_support_mass", imdot.imd, "imd_f0_support_mass", plus(1e-3)),
    ("imd_duality_convex_gap", imdot.imd, "bounded01_dual_minimum", first_plus(1e-2)),
    ("hdh_imd_and_support_bound", imdot.imd, "hdh_imd", field_plus("value", 1e-3)),
    ("hdh_imd_and_support_bound", imdot.imd, "hdh_support_bound_check",
     field_plus("imd_zero_localized", 1e-3)),
    ("localization_inclusions", imdot.families, "mix", heavier_reference),
    ("ot_primal_dual_agreement", imdot.ot, "lipschitz_imd_dual", first_plus(1e-3)),
    ("ot_beta_zero_degeneracy", imdot.ot, "wasserstein1", first_plus(1e-3)),
    ("ot_monotonicity_and_split_dominance", imdot.ot, "partial_ot_global",
     global_growing_in_beta),
    ("ot_label_shift_thresholds", imdot.ot, "partial_ot_per_class",
     field_plus("objective", 1e-3)),
    ("ot_support_distance_identity", imdot.ot, "support_distance_imd", plus(1e-3)),
    ("entropy_ordering", imdot.uncertainty, "renyi_entropy", plus(-1e-3)),
    ("hinge_uncertainty_values", imdot.uncertainty, "hinge_uncertainty", plus(0.1)),
    ("sgu_properties", imdot.uncertainty, "source_guided_uncertainty", first_plus(0.1)),
    ("sgu_monotone_in_hypotheses", imdot.uncertainty, "source_guided_uncertainty",
     sgu_growing_with_hypotheses),
]

INSTANCES = {prop.__name__: instances
             for cases in checks.SUITES.values() for prop, instances in cases}


def test_every_property_has_a_planted_fault():
    assert {name for name, *_ in FAULTS} == set(INSTANCES)


@pytest.mark.parametrize("name, module, view, fault", FAULTS,
                         ids=[f"{name}-{view}" for name, _, view, _ in FAULTS])
def test_planted_fault_fails_the_property(monkeypatch, name, module, view, fault):
    monkeypatch.setattr(module, view, fault(getattr(module, view)))
    passed, detail = getattr(checks, name)(np.random.default_rng(20240),
                                           INSTANCES[name])
    assert not passed, detail
