"""Per-class partial transport and its Lipschitz-potential dual.

The per-class problem ships the whole target onto the class-decomposed
source, where class k offers (p_k + beta_k) times its conditional as
capacity.  Its optimal cost equals the discrepancy between the target and
the relaxed source over nonnegative 1-Lipschitz functions, computed here
independently as an LP over one potential value per atom.
"""

import numpy as np

from imdot import DiscreteMeasure
from imdot.measures import class_conditionals, cost_matrix, empirical_measure, mix
from imdot.datagen import ToyConfig, generate_pair
from imdot.ot import lipschitz_imd_dual, partial_ot_per_class

config = ToyConfig(n_classes=3, n_source=24, n_target=24, seed=4)
source_ds, target_ds = generate_pair(config)

source = empirical_measure(source_ds)
target = empirical_measure(target_ds)
conditionals, proportions = class_conditionals(source_ds)
class_costs = [cost_matrix(target_ds.points, cond.points) for cond in conditionals]

beta_vec = np.array([0.4, 0.1, 0.0])
plan_set = partial_ot_per_class(target, conditionals, proportions,
                                beta_vec, class_costs)
print("empirical class proportions:", proportions.round(3))
print("relaxation vector:          ", beta_vec)
print("primal transport cost:      ", plan_set.objective)

relaxed = mix(source, conditionals, beta_vec)
dual_value, potential = lipschitz_imd_dual(target, relaxed)
print("dual potential value:       ", dual_value)
print("agreement:                  ", abs(plan_set.objective - dual_value))

slack = potential.values[potential.nonneg_on].min()
print("smallest potential on the source support (must be >= 0):", slack)

used = [plan.sum() for plan in plan_set.plans]
caps = [(proportions[k] + beta_vec[k]) * conditionals[k].total_mass
        for k in range(3)]
for k in range(3):
    print(f"class {k + 1}: shipped {used[k]:.3f} of capacity {caps[k]:.3f}")
