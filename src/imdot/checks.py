"""The one property suite, shared by ``imdot check`` and the tests.

imdot's values have three independent views -- enumeration over a function
family, closed forms, and the LP primal/dual -- and they stay correct only
while they keep agreeing.  Every randomized cross-check between them lives
here, once, as a *property*: a function ``(rng, instances) -> (passed,
detail)`` that draws ``instances`` random instances from ``rng``, compares
the views on each with its bound inside, and reports whether every
comparison held.  A property on one fixed instance ignores both arguments.

``imdot check`` runs the properties through :func:`run_suite` at fixed
per-case instance counts.  The acceptance criteria and the unit tests call
the same functions with their own seeds and counts, and draw any further
instances from the builders below, so a fresh clone can audit the solvers
with or without the test harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import imd as imd_mod
from . import ot as ot_mod
from . import uncertainty as unc
from .datagen import shared_atom_label_shift
# ``ground_union`` is bound here so that perfbench's tracer rebinds (and
# counts) it in this module as well.
from .families import (  # noqa: F401
    global_localization,
    grid_family,
    ground_union,
    hdh_family,
    indicator_family,
    localization_inclusion_check,
)
from .measures import DiscreteMeasure, cost_matrix, mix

__all__ = [
    "CheckResult",
    "run_suite",
    "SUITES",
    "dyadic_weights",
    "random_points",
    "random_measure_pair",
    "random_class_conditionals",
    "related_hypotheses",
    "random_transport_instance",
]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"suite": self.suite, "name": self.name,
                "passed": self.passed, "detail": self.detail}


# ---------------------------------------------------------------------------
# Instance builders
# ---------------------------------------------------------------------------

def dyadic_weights(rng, n, normalize=False):
    """Weights ``k / 2^16``: sums of a few dozen of them are exact in binary
    floating point, which the equality-style comparisons rely on."""
    w = rng.integers(1, 1 << 16, size=n).astype(float) / (1 << 16)
    if normalize:
        w = w / w.sum()
    return w


def random_points(rng, n, dim=2, scale=1.5):
    return rng.uniform(-scale, scale, size=(n, dim))


def random_measure_pair(rng, n):
    """Two measures on a shared random atom set."""
    pts = random_points(rng, n)
    return (DiscreteMeasure(pts, dyadic_weights(rng, n)),
            DiscreteMeasure(pts, dyadic_weights(rng, n)))


def random_class_conditionals(rng, points, n_classes):
    """(conditionals, proportions) of a random labelling of ``points``.

    Each class conditional is uniform on the points given its label; a class
    that gets no point has an empty conditional and proportion 0.
    """
    labels = rng.integers(0, n_classes, size=len(points))
    conds, p = [], np.zeros(n_classes)
    for c in range(n_classes):
        idx = np.flatnonzero(labels == c)
        p[c] = len(idx) / len(points)
        conds.append(DiscreteMeasure(points[idx],
                                     np.full(len(idx), 1.0 / max(len(idx), 1))))
    return conds, p


def related_hypotheses(rng, m, n):
    """``m`` labellings in {1, 2, 3} of ``n`` points: one base labelling with
    about 30% of each row's entries redrawn, so that many pairs disagree on
    only a few atoms.  Every labelling matrix remains possible."""
    redraw = rng.random((m, n)) < 0.3
    return np.where(redraw, rng.integers(1, 4, size=(m, n)), rng.integers(1, 4, size=n))


def random_transport_instance(rng, max_atoms=8, n_classes=None):
    """(target, source, conditionals, proportions, per-class costs)."""
    k = n_classes or int(rng.integers(2, 4))
    per_class = max(1, max_atoms // k)
    atoms = [random_points(rng, int(rng.integers(1, per_class + 1)))
             for _ in range(k)]
    p = dyadic_weights(rng, k, normalize=True)
    conds = [DiscreteMeasure(a, np.full(len(a), 1.0 / len(a))) for a in atoms]
    source = mix(DiscreteMeasure(np.empty((0, 2)), np.empty(0)), conds, p)
    n_t = int(rng.integers(2, max_atoms + 1))
    target = DiscreteMeasure(random_points(rng, n_t),
                             dyadic_weights(rng, n_t, normalize=True))
    costs = [cost_matrix(target.points, c.points) for c in conds]
    return target, source, conds, p, costs


# ---------------------------------------------------------------------------
# Properties of the enumerated IMD and its closed forms
# ---------------------------------------------------------------------------

def imd_nonneg_triangle_indicators(rng, instances):
    """Indicator-family IMD is nonnegative and obeys every triangle
    inequality among three random measures on shared atoms (exactly)."""
    fails = 0
    for _ in range(instances):
        n = int(rng.integers(2, 8))
        pts = random_points(rng, n)
        fam = indicator_family(pts)
        ms = [DiscreteMeasure(pts, dyadic_weights(rng, n)) for _ in range(3)]
        v = {(i, j): imd_mod.imd_bruteforce(ms[i], ms[j], fam).value
             for i in range(3) for j in range(3) if i != j}
        if min(v.values()) < 0 or any(v[i, k] > v[i, j] + v[j, k]
                                      for i, j, k in permutations(range(3))):
            fails += 1
    return fails == 0, f"{fails} failures over {instances} random triples"


def imd_nonneg_triangle_grid(rng, instances):
    """Grid-family IMD (step 1/4 or 1/2) is nonnegative and obeys the
    triangle inequality (exactly)."""
    fails = 0
    for _ in range(instances):
        n = int(rng.integers(2, 5))
        pts = random_points(rng, n)
        fam = grid_family(pts, step=float(rng.choice([0.25, 0.5])))
        ms = [DiscreteMeasure(pts, dyadic_weights(rng, n)) for _ in range(3)]
        v02 = imd_mod.imd_bruteforce(ms[0], ms[2], fam).value
        v01 = imd_mod.imd_bruteforce(ms[0], ms[1], fam).value
        v12 = imd_mod.imd_bruteforce(ms[1], ms[2], fam).value
        if v02 > v01 + v12 or min(v01, v12, v02) < 0:
            fails += 1
    return fails == 0, f"{fails} failures over {instances} random triples"


def imd_asymmetry_witness(rng, instances):
    """IMD(Q, 2Q) = 0 < IMD(2Q, Q) on one fixed two-atom Q."""
    q = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.25, 0.5])
    fam = indicator_family(q.points)
    asym_zero = imd_mod.imd_bruteforce(q, q.scaled(2.0), fam).value
    asym_pos = imd_mod.imd_bruteforce(q.scaled(2.0), q, fam).value
    return (asym_zero == 0.0 and asym_pos > 0,
            f"IMD(Q,2Q)={asym_zero!r} IMD(2Q,Q)={asym_pos!r}")


def imd_null_characterization(rng, instances):
    """IMD(Q1, Q2) = 0 exactly when Q1 <= Q2 atom-wise, in both orientations;
    half the pairs are dominated by construction."""
    fails = 0
    for _ in range(instances):
        n = int(rng.integers(2, 8))
        q1, q2 = random_measure_pair(rng, n)
        if rng.random() < 0.5:
            q2 = DiscreteMeasure(q1.points, q1.weights + dyadic_weights(rng, n))
        fam = indicator_family(q1.points)
        for a, b in ((q1, q2), (q2, q1)):
            value = imd_mod.imd_bruteforce(a, b, fam).value
            if (value == 0.0) != bool(np.all(a.weights <= b.weights)):
                fails += 1
    return fails == 0, (f"{fails} failures over {instances} random pairs "
                        "in both orientations")


def imd_tv_matches_bruteforce(rng, instances):
    """The bounded-function closed form equals indicator enumeration exactly."""
    fails = 0
    for _ in range(instances):
        n = int(rng.integers(2, 9))
        q1, q2 = random_measure_pair(rng, n)
        closed = imd_mod.imd_tv_closed_form(q1, q2)
        brute = imd_mod.imd_bruteforce(q1, q2, indicator_family(q1.points)).value
        if closed != brute:
            fails += 1
    return fails == 0, f"{fails} mismatches over {instances} instances"


def imd_f0_support_mass(rng, instances):
    """T-mass off supp(S) equals the zero-localized enumeration (1e-12)."""
    fails = 0
    for _ in range(instances):
        n = int(rng.integers(8, 11))
        pts = random_points(rng, n)
        t = DiscreteMeasure(pts, dyadic_weights(rng, n))
        s = DiscreteMeasure(pts, np.where(rng.random(n) < 0.6,
                                          dyadic_weights(rng, n), 0.0))
        direct = imd_mod.imd_f0_support_mass(t, s)
        brute = imd_mod.imd_bruteforce(t, s, indicator_family(pts),
                                       global_localization(0.0, s)).value
        if abs(direct - brute) > 1e-12:
            fails += 1
    return fails == 0, f"{fails} mismatches over {instances} instances"


def imd_duality_convex_gap(rng, instances):
    """Localization <= relaxation on a 26-point alpha grid, and equality
    within 1e-3 over the convex hull of the grid family."""
    worst = 0.0
    bad_ineq = 0
    alpha_grid = np.linspace(0.0, 5.0, 26)
    for _ in range(instances):
        n = int(rng.integers(2, 5))
        pts = random_points(rng, n)
        t = DiscreteMeasure(pts, dyadic_weights(rng, n, normalize=True))
        s = DiscreteMeasure(pts, dyadic_weights(rng, n, normalize=True))
        report = imd_mod.duality_check(t, s, grid_family(pts), 0.1, alpha_grid)
        if not report.inequality_holds:
            bad_ineq += 1
        worst = max(worst, abs(report.hull_gap))
    return (bad_ineq == 0 and worst <= 1e-3,
            f"max hull gap {worst:.2e}, {bad_ineq} inequality failures")


def hdh_matches_bruteforce(rng, instances):
    """The pairwise hdh scan equals enumeration of the relaxed problem, and
    ``1 - value`` equals its classification-risk form (both 1e-12)."""
    worst = worst_risk = 0.0
    for _ in range(instances):
        n = int(rng.integers(3, 7))
        pts = random_points(rng, n)
        fam = hdh_family(pts, rng.integers(1, 4, size=(int(rng.integers(2, 6)), n)))
        t = DiscreteMeasure(pts, dyadic_weights(rng, n, normalize=True))
        s = DiscreteMeasure(pts, dyadic_weights(rng, n, normalize=True))
        beta = float(rng.uniform(0, 1))
        res = imd_mod.hdh_imd(t, s, fam, beta=beta)
        brute = imd_mod.imd_bruteforce(t, s.scaled(1 + beta), fam).value
        worst = max(worst, abs(res.value - brute))
        worst_risk = max(worst_risk, abs((1 - res.value) - res.risk_form_value))
    return (worst <= 1e-12 and worst_risk <= 1e-12,
            f"max hdh gap {worst:.2e} to enumeration, {worst_risk:.2e} to the "
            f"risk form over {instances} instances")


def hdh_support_bound(rng, instances):
    """The zero-localized hdh IMD equals its enumeration (1e-12) and is at
    most ``1 - T(hypothesis-relative support of S)``; S leaves about 30% of
    the atoms empty."""
    fails = 0
    for _ in range(instances):
        n = int(rng.integers(3, 13))
        pts = random_points(rng, n)
        fam = hdh_family(pts, related_hypotheses(rng, int(rng.integers(2, 6)), n))
        t = DiscreteMeasure(pts, dyadic_weights(rng, n, normalize=True))
        w = np.where(rng.random(n) < 0.7, dyadic_weights(rng, n), 0.0)
        if w.sum() == 0:
            w[0] = 1.0
        s = DiscreteMeasure(pts, w / w.sum())
        report = imd_mod.hdh_support_bound_check(t, s, fam)
        brute = imd_mod.imd_bruteforce(t, s, fam, global_localization(0.0, s)).value
        if abs(report.imd_zero_localized - brute) > 1e-12 or not report.holds:
            fails += 1
    return fails == 0, f"{fails} support-bound failures over {instances} instances"


def hdh_imd_and_support_bound(rng, instances):
    """:func:`hdh_matches_bruteforce` and :func:`hdh_support_bound`."""
    scan_ok, scan = hdh_matches_bruteforce(rng, instances)
    bound_ok, bound = hdh_support_bound(rng, instances)
    return scan_ok and bound_ok, f"{scan}; {bound}"


def localization_inclusions(rng, instances):
    """Per-class localization sits inside the matching global one and back,
    on random labellings with up to 12 atoms."""
    fails = 0
    for _ in range(instances):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(2, 4))
        pts = random_points(rng, n)
        conds, p = random_class_conditionals(rng, pts, k)
        eps_vec = rng.uniform(0, 0.6, size=k)
        if not localization_inclusion_check(indicator_family(pts), conds, p,
                                            eps_vec).ok:
            fails += 1
    return fails == 0, f"{fails} failures over {instances} instances"


# ---------------------------------------------------------------------------
# Properties of the transport solvers
# ---------------------------------------------------------------------------

def ot_primal_dual_agreement(rng, instances):
    """Per-class partial OT equals the Lipschitz dual of the relaxed source
    (1e-6), whose potential is nonnegative on the source support (1e-10)."""
    worst = 0.0
    negative = 0
    for _ in range(instances):
        target, source, conds, p, costs = random_transport_instance(rng)
        beta_vec = rng.uniform(0, 0.8, size=len(p))
        plan_set = ot_mod.partial_ot_per_class(target, conds, p, beta_vec, costs)
        dual_value, potential = ot_mod.lipschitz_imd_dual(
            target, mix(source, conds, beta_vec))
        worst = max(worst, abs(plan_set.objective - dual_value))
        if np.min(potential.values[potential.nonneg_on]) < -1e-10:
            negative += 1
    return (worst <= 1e-6 and negative == 0,
            f"max |primal - dual| = {worst:.2e}, {negative} negative potentials "
            f"over {instances} instances")


def ot_beta_zero_degeneracy(rng, instances):
    """At zero relaxation, per-class and global partial OT equal W1 (1e-8)."""
    worst = 0.0
    for _ in range(instances):
        target, source, conds, p, costs = random_transport_instance(rng)
        cost_full = cost_matrix(target.points, source.points)
        w1, _ = ot_mod.wasserstein1(target, source, cost_full)
        zero = np.zeros(len(p))
        v_pc = ot_mod.partial_ot_per_class(target, conds, p, zero, costs).objective
        v_gl, _ = ot_mod.partial_ot_global(target, source, cost_full, 0.0)
        worst = max(worst, abs(w1 - v_pc), abs(w1 - v_gl))
    return worst <= 1e-8, f"max deviation from Wasserstein-1 = {worst:.2e}"


def ot_monotonicity_and_split_dominance(rng, instances):
    """Global partial OT is nonincreasing in beta, equals per-class OT at
    ``beta * p``, and the optimal budget split is no worse (all 1e-8).

    The three betas are exponential draws, so most fall in [0, 2] and some
    well above.
    """
    bad = 0
    for _ in range(instances):
        target, source, conds, p, costs = random_transport_instance(rng)
        cost_full = cost_matrix(target.points, source.points)
        betas = np.sort(rng.exponential(1.0, size=3))
        vals = [ot_mod.partial_ot_global(target, source, cost_full, b)[0]
                for b in betas]
        v_prop = ot_mod.partial_ot_per_class(
            target, conds, p, betas[1] * p, costs).objective
        v_split = ot_mod.partial_ot_beta_split(
            target, conds, p, betas[1], costs).objective
        if (vals[1] > vals[0] + 1e-8 or vals[2] > vals[1] + 1e-8
                or abs(v_prop - vals[1]) > 1e-8 or v_split > v_prop + 1e-8):
            bad += 1
    return bad == 0, f"{bad} failures over {instances} instances"


def ot_label_shift_thresholds(rng, instances):
    """On the two-atom label shift p = (0.8, 0.2) -> (0.5, 0.5) the value
    vanishes exactly at the thresholds (0.3 per class, 1.5 global) and is
    the moved deficit (0.01, 0.002) just below them."""
    source, conds, target = shared_atom_label_shift(
        [[[0.0, 0.0]], [[1.0, 0.0]]], [0.8, 0.2], [0.5, 0.5])
    costs = [cost_matrix(target.points, c.points) for c in conds]
    at = ot_mod.partial_ot_per_class(target, conds, [0.8, 0.2],
                                     [0.0, 0.3], costs).objective
    below = ot_mod.partial_ot_per_class(target, conds, [0.8, 0.2],
                                        [0.0, 0.29], costs).objective
    cost_full = cost_matrix(target.points, source.points)
    g_at, _ = ot_mod.partial_ot_global(target, source, cost_full, 1.5)
    g_below, _ = ot_mod.partial_ot_global(target, source, cost_full, 1.49)
    ok = (abs(at) <= 1e-8 and abs(below - 0.01) <= 1e-9
          and abs(g_at) <= 1e-8 and abs(g_below - 0.002) <= 1e-9)
    return ok, (f"per-class ({at:.2e}, {below:.2e}); "
                f"global ({g_at:.2e}, {g_below:.2e})")


def ot_support_distance_identity(rng, instances):
    """The support-distance closed form equals the zero-localized Lipschitz
    dual LP (1e-6)."""
    worst = 0.0
    for _ in range(instances):
        n_t, n_s = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        target = DiscreteMeasure(random_points(rng, n_t),
                                 dyadic_weights(rng, n_t, normalize=True))
        source = DiscreteMeasure(random_points(rng, n_s),
                                 dyadic_weights(rng, n_s, normalize=True))
        direct = ot_mod.support_distance_imd(target, source)
        lp_value, _ = ot_mod.lipschitz_imd_dual(target, source, zero_on_support=True)
        worst = max(worst, abs(direct - lp_value))
    return worst <= 1e-6, f"max deviation {worst:.2e} over {instances} instances"


# ---------------------------------------------------------------------------
# Properties of the uncertainty scores
# ---------------------------------------------------------------------------

#: Renyi orders compared against the min-entropy.
RENYI_ALPHAS = (1.0, 1.3, 1.5, 2.0, 4.0, 5.0, 8.0, np.inf)


def entropy_ordering(rng, instances):
    """The min-entropy is at most every Renyi entropy (1e-12)."""
    bad = 0
    for _ in range(instances):
        v = rng.dirichlet(np.ones(int(rng.integers(2, 8))))
        h_inf = unc.min_entropy_uncertainty(v)
        bad += sum(h_inf > unc.renyi_entropy(v, alpha) + 1e-12
                   for alpha in RENYI_ALPHAS)
    return bad == 0, f"{bad} violations over {instances} simplex vectors"


def hinge_uncertainty_values(rng, instances):
    """Spot values of ``(1 - |margin|)_+``."""
    spot = (unc.hinge_uncertainty(1.5) == 0.0
            and unc.hinge_uncertainty(0.0) == 1.0
            and abs(unc.hinge_uncertainty(0.4) - 0.6) <= 1e-15)
    return spot, "spot formulas"


def sgu_properties(rng, instances):
    """The three source-guided uncertainty properties, by exhaustive scan."""
    fails = 0
    for _ in range(instances):
        n_t, n_s = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        k = int(rng.integers(2, 4))
        m = int(rng.integers(2, 6))
        m_tilde = m + int(rng.integers(0, 4))
        tilde_t = rng.integers(1, k + 1, size=(m_tilde, n_t))
        tilde_s = rng.integers(1, k + 1, size=(m_tilde, n_s))
        report = unc.verify_sgu_properties(
            tilde_t[:m], tilde_s[:m],
            rng.integers(1, k + 1, size=n_s),
            rng.integers(1, k + 1, size=n_t),
            tilde_t, tilde_s, k)
        if not report.ok:
            fails += 1
    return fails == 0, f"{fails} failures over {instances} random instances"


def sgu_monotone_in_hypotheses(rng, instances):
    """Adding hypotheses never raises the source-guided uncertainty."""
    fails = 0
    for _ in range(instances):
        n, k = 5, 3
        m = int(rng.integers(2, 5))
        m_large = m + int(rng.integers(2, 4))
        hyp_t = rng.integers(1, k + 1, size=(m_large, n))
        hyp_s = rng.integers(1, k + 1, size=(m_large, n))
        y_s = rng.integers(1, k + 1, size=n)
        g = rng.integers(1, k + 1, size=n)
        small, _ = unc.source_guided_uncertainty(g, hyp_t[:m], hyp_s[:m], y_s)
        large, _ = unc.source_guided_uncertainty(g, hyp_t, hyp_s, y_s)
        if large > small + 1e-12:
            fails += 1
    return fails == 0, f"{fails} failures over {instances} instances"


#: Each suite's properties with the instance count ``imdot check`` runs.
SUITES = {
    "imd": (
        (imd_nonneg_triangle_indicators, 60),
        (imd_nonneg_triangle_grid, 20),
        (imd_asymmetry_witness, 1),
        (imd_null_characterization, 60),
        (imd_tv_matches_bruteforce, 40),
        (imd_f0_support_mass, 40),
        (imd_duality_convex_gap, 25),
        (hdh_imd_and_support_bound, 30),
        (localization_inclusions, 25),
    ),
    "ot": (
        (ot_primal_dual_agreement, 30),
        (ot_beta_zero_degeneracy, 15),
        (ot_monotonicity_and_split_dominance, 15),
        (ot_label_shift_thresholds, 1),
        (ot_support_distance_identity, 25),
    ),
    "uncertainty": (
        (entropy_ordering, 2000),
        (hinge_uncertainty_values, 1),
        (sgu_properties, 25),
        (sgu_monotone_in_hypotheses, 20),
    ),
}


def run_suite(name: str, seed: int = 20240) -> list:
    """Run one named suite (or all) and return CheckResult entries.

    Each suite draws from its own generator seeded with ``seed``.
    """
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITES)} or 'all'")
    out = []
    for suite_name in names:
        rng = np.random.default_rng(seed)
        for prop, instances in SUITES[suite_name]:
            passed, detail = prop(rng, instances)
            out.append(CheckResult(suite_name, prop.__name__, bool(passed), detail))
    return out
