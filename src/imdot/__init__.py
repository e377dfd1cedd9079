"""Integral measure discrepancies, localization and per-class partial
optimal transport on discrete measures, with the toy label-shift benchmark.
"""

from .measures import (
    CostMatrix,
    DiscreteMeasure,
    LabeledDataset,
    class_conditionals,
    cost_matrix,
    empirical_measure,
    mix,
)
from .families import (
    FunctionFamily,
    Localization,
    enumerate_members,
    global_localization,
    grid_family,
    ground_union,
    hdh_family,
    indicator_family,
    localization_inclusion_check,
    no_localization,
    per_class_localization,
    weights_on_ground,
)
from .imd import (
    ImdResult,
    duality_check,
    hdh_imd,
    hdh_support_bound_check,
    imd_bruteforce,
    imd_f0_support_mass,
    imd_tv_closed_form,
)
from .ot import (
    LipschitzPotential,
    TransportPlanSet,
    lipschitz_imd_dual,
    partial_ot_beta_split,
    partial_ot_beta_split_path,
    partial_ot_global,
    partial_ot_global_path,
    partial_ot_per_class,
    support_distance_imd,
    wasserstein1,
)
from .uncertainty import (
    hinge_uncertainty,
    min_entropy_uncertainty,
    renyi_entropy,
    source_guided_uncertainty,
    verify_sgu_properties,
)
from .datagen import (
    ToyConfig,
    class_centers,
    generate_pair,
    shared_atom_label_shift,
    source_proportions,
)
from .experiments import accuracy, propagate_labels, run_sweep

__version__ = "0.1.0"
