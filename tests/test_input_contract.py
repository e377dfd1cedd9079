"""One input contract: a malformed argument of a public function is named.

Each row of ``CONTRACT`` is a public function of :mod:`imdot`, a valid call
of it, and one argument of that call with its kind.  Into each row Hypothesis
substitutes one malformed value at a time: NaN, ``+inf`` or ``-inf`` (in
one entry of a vector or a matrix), a bool, a negative number, an empty or
ragged array, or a wrong length; into a label argument, a fraction, NaN,
``+inf`` or ``-inf``, a bool, a string, a ragged array or one of the wrong
dimension, and 0 or K + 1 where the labels lie in ``1..K``.  The call must
raise a ValueError whose message names the argument; a numpy error, a bare
TypeError or an LpError from HiGHS fails the test.  A row lists the forms
that are legitimately valid for its argument, such as an infinite per-class
eps (a vacuous cap) or an infinite Renyi order, and those calls must
succeed; every label argument takes integral floats such as ``1.0``, and a
hypothesis label any integer.  A count whose owner states its range in its
own words, as ``ToyConfig`` does for the class count and the sample sizes,
must meet a negative value with exactly that message.
"""

import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import imdot

FORMS = ("nan", "inf", "-inf", "bool", "negative", "empty", "ragged", "wrong length")
LABEL_FORMS = ("fraction", "nan", "inf", "-inf", "bool", "string", "ragged",
               "wrong dimension", "zero", "above", "integral float")

CONTRACT_SETTINGS = settings(derandomize=True, max_examples=5, deadline=None, database=None)

# A three-atom target, a two-class source on the same atoms, and their costs.
POINTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
TARGET = imdot.DiscreteMeasure(POINTS, [0.25, 0.25, 0.5])
CONDS = [imdot.DiscreteMeasure(POINTS[:1], [1.0]),
         imdot.DiscreteMeasure(POINTS[1:], [0.5, 0.5])]
SOURCE = imdot.mix(imdot.DiscreteMeasure(np.empty((0, 2)), np.empty(0)), CONDS, [0.5, 0.5])
COST = imdot.cost_matrix(POINTS, SOURCE.points)
COSTS = [imdot.cost_matrix(POINTS, cond.points) for cond in CONDS]
FAMILY = imdot.indicator_family(POINTS)
PLAN = np.array([[0.5, 0.0], [0.0, 0.5]])
LABELS = np.array([1, 2])
SMALL = imdot.ToyConfig(n_source=30, n_target=30)


def plan_set(block):
    """A two-class plan set whose first block is ``block``."""
    return imdot.TransportPlanSet((block, np.array([[0.0], [0.5]])), np.zeros(2), 0.0)


@dataclass(frozen=True)
class Row:
    """``function(**args)`` is valid; ``argument`` of it has ``kind``
    (``count``, ``real``, ``nonnegative``, ``probability``, ``plan`` or
    ``label``) and takes the ``valid`` forms legitimately."""

    label: str
    function: object
    args: dict
    argument: str
    kind: str
    valid: tuple = ()
    named: str | None = None   # the name in the message, when not ``argument``
    ranged: str | None = None  # the owner's range rule, which a negative value
                               # meets before any rule that names the argument
    classes: int | None = None  # K, for labels that lie in 1..K

    @property
    def forms(self) -> tuple:
        return LABEL_FORMS if self.kind == "label" else FORMS

    def call(self, value):
        return self.function(**{**self.args, self.argument: value})


def label_row(label, function, args, argument, classes=None) -> Row:
    """A row whose argument holds labels, in ``1..classes`` when that is
    given and otherwise any integers."""
    valid = ("integral float",) + (("zero", "above") if classes is None else ())
    return Row(label, function, args, argument, "label", valid=valid, classes=classes)


SGU_ARGS = {"hyp_target": [[1, 2], [2, 2]], "hyp_source": [[1, 1], [2, 1]],
            "source_labels": [1, 2], "target_labels": [1, 2],
            "tilde_target": [[1, 2], [2, 2], [1, 1]],
            "tilde_source": [[1, 1], [2, 1], [2, 2]], "n_classes": 2}

CONTRACT = [
    Row("DiscreteMeasure", imdot.DiscreteMeasure,
        {"points": POINTS, "weights": [0.2, 0.3, 0.5]}, "weights", "nonnegative"),
    Row("DiscreteMeasure.scaled", TARGET.scaled, {"factor": 2.0}, "factor", "nonnegative"),
    Row("LabeledDataset", imdot.LabeledDataset,
        {"points": POINTS, "labels": [1, 2, 2], "n_classes": 2}, "n_classes", "count"),
    label_row("LabeledDataset", imdot.LabeledDataset,
              {"points": POINTS, "labels": [1, 2, 2], "n_classes": 2}, "labels", classes=2),
    Row("CostMatrix", imdot.CostMatrix, {"entries": COST.entries}, "entries", "nonnegative",
        valid=("wrong length",), named="cost entries"),
    Row("mix", imdot.mix, {"base": TARGET, "components": CONDS, "coeffs": [0.5, 0.0]},
        "coeffs", "nonnegative"),
    Row("Localization", lambda eps: imdot.Localization(((TARGET, eps),)), {"eps": 0.1},
        "eps", "nonnegative"),
    Row("global_localization", imdot.global_localization,
        {"eps": 0.1, "reference": SOURCE}, "eps", "nonnegative"),
    Row("per_class_localization", imdot.per_class_localization,
        {"eps": [0.1, 0.2], "conditionals": CONDS}, "eps", "nonnegative", valid=("inf",)),
    Row("localization_inclusion_check", imdot.localization_inclusion_check,
        {"family": FAMILY, "conditionals": CONDS, "proportions": [0.5, 0.5],
         "eps_vec": [0.1, 0.2], "eps": 0.1}, "eps", "nonnegative"),
    Row("duality_check", imdot.duality_check,
        {"target": TARGET, "source": SOURCE, "family": FAMILY, "eps": 0.1,
         "alpha_grid": [0.0, 0.5]}, "eps", "nonnegative"),
    Row("duality_check", imdot.duality_check,
        {"target": TARGET, "source": SOURCE, "family": FAMILY, "eps": 0.1,
         "alpha_grid": [0.0, 0.5]}, "alpha_grid", "nonnegative", valid=("wrong length",)),
    Row("partial_ot_global", imdot.partial_ot_global,
        {"target": TARGET, "source": SOURCE, "cost": COST, "beta": 0.5}, "beta",
        "nonnegative"),
    Row("partial_ot_global_path", imdot.partial_ot_global_path,
        {"target": TARGET, "source": SOURCE, "cost": COST, "beta_grid": [0.0, 0.5]},
        "beta_grid", "nonnegative", valid=("empty", "wrong length")),
    *[Row("partial_ot_per_class", imdot.partial_ot_per_class,
          {"target": TARGET, "conditionals": CONDS, "proportions": [0.5, 0.5],
           "beta_vec": [0.1, 0.2], "costs": COSTS}, argument, "nonnegative")
      for argument in ("proportions", "beta_vec")],
    *[Row("partial_ot_beta_split", imdot.partial_ot_beta_split,
          {"target": TARGET, "conditionals": CONDS, "proportions": [0.5, 0.5],
           "beta_total": 0.5, "costs": COSTS}, argument, "nonnegative")
      for argument in ("proportions", "beta_total")],
    Row("partial_ot_beta_split_path", imdot.partial_ot_beta_split_path,
        {"target": TARGET, "conditionals": CONDS, "proportions": [0.5, 0.5],
         "beta_grid": [0.0, 0.5], "costs": COSTS}, "beta_grid", "nonnegative",
        valid=("empty", "wrong length")),
    Row("hinge_uncertainty", imdot.hinge_uncertainty, {"margin": 0.4}, "margin", "real",
        valid=("negative",)),
    Row("min_entropy_uncertainty", imdot.min_entropy_uncertainty, {"score": [0.7, 0.3]},
        "score", "probability", valid=("wrong length",)),
    Row("renyi_entropy", imdot.renyi_entropy, {"score": [0.7, 0.3], "alpha": 2.0}, "score",
        "probability", valid=("wrong length",)),
    Row("renyi_entropy", imdot.renyi_entropy, {"score": [0.7, 0.3], "alpha": 2.0}, "alpha",
        "nonnegative", valid=("inf",)),
    Row("ToyConfig", imdot.ToyConfig, {"seed": 3}, "seed", "count"),
    Row("ToyConfig", imdot.ToyConfig, {"n_classes": 3}, "n_classes", "count",
        ranged="need at least two classes"),
    *[Row("ToyConfig", imdot.ToyConfig, {argument: 300}, argument, "count",
          ranged="sample sizes must be at least the class count")
      for argument in ("n_source", "n_target")],
    *[Row("ToyConfig", imdot.ToyConfig, {argument: value}, argument, "real", valid=valid)
      for argument, value, valid in (("sigma", 0.35, ()), ("eta", 1.0, ()),
                                     ("theta_degrees", 10.0, ("negative",)))],
    Row("class_centers", imdot.class_centers, {"n_classes": 3}, "n_classes", "count"),
    Row("source_proportions", imdot.source_proportions, {"n_classes": 3, "eta": 1.0},
        "n_classes", "count"),
    Row("source_proportions", imdot.source_proportions, {"n_classes": 3, "eta": 1.0},
        "eta", "nonnegative"),
    *[Row("shared_atom_label_shift", imdot.shared_atom_label_shift,
          {"class_atoms": [[[0.0, 0.0]], [[1.0, 0.0]]], "p": [0.6, 0.4], "q": [0.5, 0.5]},
          argument, "probability") for argument in ("p", "q")],
    Row("propagate_labels", imdot.propagate_labels,
        {"plan": PLAN, "source_labels": LABELS, "n_classes": 2}, "plan", "plan"),
    Row("propagate_labels", lambda block: imdot.propagate_labels(plan_set(block), LABELS, 2),
        {"block": np.array([[0.5], [0.0]])}, "block", "plan"),
    Row("propagate_labels", imdot.propagate_labels,
        {"plan": PLAN, "source_labels": LABELS, "n_classes": 2}, "n_classes", "count"),
    label_row("propagate_labels", imdot.propagate_labels,
              {"plan": PLAN, "source_labels": LABELS, "n_classes": 2}, "source_labels",
              classes=2),
    label_row("hdh_family", imdot.hdh_family,
              {"ground_points": POINTS, "hypotheses": [[1, 2, 2], [1, 1, 2]]}, "hypotheses"),
    label_row("cross_entropy_loss", imdot.uncertainty.cross_entropy_loss,
              {"score": [0.3, 0.7], "label": 2}, "label", classes=2),
    *[label_row("verify_sgu_properties", imdot.verify_sgu_properties, SGU_ARGS, argument,
                classes=2)
      for argument in SGU_ARGS if argument != "n_classes"],
    Row("verify_sgu_properties", imdot.verify_sgu_properties, SGU_ARGS, "n_classes", "count"),
    # Two budgets, so that one fewer is not the empty grid.
    Row("run_sweep", imdot.run_sweep, {"config": SMALL, "beta_grid": [0.0, 0.5], "draws": 1},
        "beta_grid", "nonnegative", valid=("wrong length",)),
    *[Row("run_sweep", imdot.run_sweep,
          {"config": SMALL, "beta_grid": [0.5], "draws": 1, "jobs": 1}, argument, "count")
      for argument in ("draws", "jobs")],
]

RAGGED = [[0.5], [0.25, 0.25]]


def substitutes(row: Row, form: str):
    """A strategy of values of ``form`` in place of ``row``'s argument."""
    valid = np.asarray(row.args[row.argument])
    if row.kind == "label" and form not in FORMS:
        return label_substitutes(row, form, valid)
    if form == "empty":
        return st.just([])
    if form == "ragged":
        return st.just(RAGGED)
    if valid.ndim == 0:
        special = {"nan": st.just(np.nan), "inf": st.just(np.inf), "-inf": st.just(-np.inf),
                   "bool": st.booleans(),
                   "negative": (st.integers(max_value=-1) if row.kind == "count"
                                else st.floats(max_value=-np.finfo(float).tiny,
                                               allow_infinity=False)),
                   "wrong length": st.integers(1, 3).map(lambda n: [valid.item()] * n)}
        return special[form]
    if form == "bool":
        return st.lists(st.booleans(), min_size=valid.size, max_size=valid.size).map(
            lambda flags: np.array(flags).reshape(valid.shape))
    if form == "wrong length":
        # One column or entry more or fewer, each entry a valid one.
        if row.kind == "probability":
            return st.sampled_from([-1, 1]).map(
                lambda d: np.full(len(valid) + d, 1.0 / (len(valid) + d)))
        return st.sampled_from([-1, 1]).map(
            lambda d: valid[..., :d] if d < 0 else np.concatenate(
                [valid, valid[..., :1] * 0], axis=-1))
    entry = st.integers(0, valid.size - 1)
    if form == "negative":
        magnitude = st.floats(1e-9, 1e6, allow_nan=False, allow_infinity=False)
        return st.tuples(entry, magnitude).map(lambda im: negative(valid, row.kind, *im))
    bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[form]
    return entry.map(lambda i: replaced(valid, i, bad))


def label_substitutes(row: Row, form: str, valid):
    """A strategy of values of a label-only ``form`` in place of ``row``'s
    argument, whose valid value is ``valid``."""
    if form == "integral float":
        return st.just(valid.astype(float))
    if form == "string":
        return st.just(valid.astype(str))
    if form == "wrong dimension":
        return st.just(valid[0] if valid.ndim == 2 else valid[np.newaxis])
    value = {"fraction": None, "zero": 0, "above": (row.classes or valid.max()) + 1}[form]
    if valid.ndim == 0:
        return st.just(valid + 0.5 if value is None else value)
    return st.integers(0, valid.size - 1).map(
        lambda i: replaced(valid, i, valid.flat[i] + 0.5 if value is None else value))


def replaced(valid, i, value):
    out = valid.astype(float).copy()
    out.flat[i] = value
    return out


def negative(valid, kind, i, magnitude):
    """``valid`` with entry ``i`` at ``-magnitude``; a probability vector
    keeps its sum by moving the difference to another entry."""
    out = replaced(valid, i, -magnitude)
    if kind == "probability":
        out.flat[(i + 1) % valid.size] += valid.flat[i] + magnitude
    return out


def names(message: str, name: str) -> bool:
    return re.search(rf"(?<!\w){re.escape(name)}(?!\w)", message) is not None


CASES = [(row, form) for row in CONTRACT for form in row.forms]


def case_id(case):
    row, form = case
    return f"{row.label}-{row.argument}-{form}"


@pytest.mark.parametrize("row", CONTRACT, ids=lambda row: f"{row.label}-{row.argument}")
def test_the_valid_call_succeeds(row):
    row.call(row.args[row.argument])


@pytest.mark.parametrize("case", [c for c in CASES if c[1] not in c[0].valid], ids=case_id)
def test_a_malformed_argument_is_named(case):
    row, form = case

    @CONTRACT_SETTINGS
    @given(substitutes(row, form))
    def check(value):
        with pytest.raises(ValueError) as failure:
            row.call(value)
        assert failure.type is ValueError, failure.type
        if form == "negative" and row.ranged:
            assert str(failure.value) == row.ranged
        else:
            assert names(str(failure.value), row.named or row.argument), str(failure.value)

    check()


@pytest.mark.parametrize("case", [c for c in CASES if c[1] in c[0].valid], ids=case_id)
def test_a_legitimate_value_is_accepted(case):
    row, form = case

    @settings(CONTRACT_SETTINGS, max_examples=2)
    @given(substitutes(row, form))
    def check(value):
        row.call(value)

    check()
