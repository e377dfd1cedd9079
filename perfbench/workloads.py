"""The benchmark's workloads: inputs from a seed, one timed item, its checks.

Every run of a workload times the same fixed set of inputs, whose reference
values were computed once and stored under ``reference/``; the workload
seed decides the order in which a run visits them.  The set is fixed so
that run-to-run differences come from the machine alone: a run has room
for only a few items, and fresh inputs per seed would add their own spread.

An *op* is the unit of work that is counted and checked: one (beta, mode)
solve with its label propagation in the sweeps, and one check case or one
closed-form value in ``oracle_views``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Allowed deviation of a value from its stored reference: ``REL_TOL * (1 + |v|)``.
REL_TOL = 1e-8

#: Slack on the sweep invariants (split <= global, nonincreasing in beta).
INVARIANT_TOL = 1e-9


@dataclass
class ItemOutput:
    """What one item produced, before any checking."""

    seconds: float
    values: dict = field(default_factory=dict)      # op -> number, gated on a reference
    flags: dict = field(default_factory=dict)       # op -> passed, gated on truth
    program_failures: set = field(default_factory=set)  # ops the program reported failed
    fingerprint: bytes = b""                        # the item's data outputs, byte for byte


class Workload:
    name: str
    #: Input seeds of the items one pass over the workload runs.
    inputs: tuple
    #: Items in a traced run; fixed so that its counts repeat exactly.
    trace_items: int

    def order(self, run_seed: int) -> list:
        """The input seeds in the order the run with seed ``run_seed`` visits them."""
        order = list(self.inputs)
        random.Random(f"{self.name}/{run_seed}").shuffle(order)
        return order

    def ops(self) -> list:
        raise NotImplementedError

    def run(self, item_seed: int, work_dir: Path) -> ItemOutput:
        raise NotImplementedError

    def invariant_failures(self, out: ItemOutput) -> set:
        return set()

    def failed_ops(self, out: ItemOutput, reference: dict | None) -> set:
        """Ops of ``out`` that fail the program, the reference or an invariant.

        ``reference`` maps op -> value for this item; an op with a value and
        no stored reference fails.
        """
        failed = set(out.program_failures) | self.invariant_failures(out)
        reference = reference or {}
        for op in self.ops():
            if op in out.flags:
                if not out.flags[op]:
                    failed.add(op)
            elif op in out.values:
                value, ref = out.values[op], reference.get(op)
                if ref is None or not math.isfinite(value) \
                        or abs(value - ref) > REL_TOL * (1.0 + abs(ref)):
                    failed.add(op)
            else:
                failed.add(op)  # the item did not produce this op at all
        return failed

    def load_reference(self) -> dict:
        path = REFERENCE_DIR / f"{self.name}.json"
        return {int(k): v for k, v in json.loads(path.read_text())["items"].items()}


@dataclass
class SweepWorkload(Workload):
    """One ``imdot sweep`` CLI call with one draw, in process."""

    name: str
    n_classes: int
    n: int
    beta_grid: tuple
    mode: str
    inputs: tuple
    trace_items: int

    def modes(self) -> tuple:
        return ("global", "per_class_split") if self.mode == "both" else (self.mode,)

    def ops(self) -> list:
        return [f"{beta!r}/{mode}" for beta in self.beta_grid for mode in self.modes()]

    def argv(self, item_seed: int, out_dir: Path) -> list:
        return ["sweep", "--k", str(self.n_classes), "--n", str(self.n),
                "--eta", "1", "--theta", "0",
                "--beta-grid", ",".join(repr(b) for b in self.beta_grid),
                "--mode", self.mode, "--draws", "1", "--jobs", "1",
                "--seed", str(item_seed), "--out", str(out_dir)]

    def run(self, item_seed: int, work_dir: Path) -> ItemOutput:
        import imdot.cli

        out_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=work_dir))
        try:
            argv = self.argv(item_seed, out_dir)
            start = time.perf_counter()
            code = imdot.cli.main(argv)
            seconds = time.perf_counter() - start
            out = ItemOutput(seconds)
            if code != 0:
                out.program_failures.update(self.ops())
                return out
            draws = (out_dir / "draws.csv").read_bytes()
            names = ["draws.csv", "config.json"]
            if self.mode == "both":
                names.insert(1, "summary.csv")
            out.fingerprint = b"".join((out_dir / n).read_bytes() for n in names)
            manifest = json.loads((out_dir / "manifest.json").read_text())
            if not manifest.get("success"):
                out.program_failures.update(self.ops())
            for _, beta, mode, _ in manifest["config"].get("failures", []):
                out.program_failures.add(f"{float(beta)!r}/{mode}")
            for row in csv.DictReader(io.StringIO(draws.decode())):
                out.values[f"{float(row['beta'])!r}/{row['mode']}"] = float(row["objective"])
            return out
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def invariant_failures(self, out: ItemOutput) -> set:
        """Split never above global at one beta; values nonincreasing in beta."""
        v = out.values
        failed = set()
        for beta in self.beta_grid:
            split, glob = v.get(f"{beta!r}/per_class_split"), v.get(f"{beta!r}/global")
            if split is not None and glob is not None and split > glob + INVARIANT_TOL:
                failed.add(f"{beta!r}/per_class_split")
        for mode in self.modes():
            for lo, hi in zip(self.beta_grid, self.beta_grid[1:]):
                a, b = v.get(f"{lo!r}/{mode}"), v.get(f"{hi!r}/{mode}")
                if a is not None and b is not None \
                        and b > a + INVARIANT_TOL * (1.0 + abs(a)):
                    failed.add(f"{hi!r}/{mode}")
        return failed


CLOSED_FORMS = ("imd_tv_closed_form", "imd_f0_support_mass", "support_distance_imd")

#: The 18 cases of ``imdot.checks.run_suite("all", seed)``; each is one op.
SUITE_CASES = (
    "imd/imd_nonneg_triangle_indicators", "imd/imd_nonneg_triangle_grid",
    "imd/imd_asymmetry_witness", "imd/imd_null_characterization",
    "imd/imd_tv_matches_bruteforce", "imd/imd_f0_support_mass",
    "imd/imd_duality_convex_gap", "imd/hdh_imd_and_support_bound",
    "imd/localization_inclusions",
    "ot/ot_primal_dual_agreement", "ot/ot_beta_zero_degeneracy",
    "ot/ot_monotonicity_and_split_dominance", "ot/ot_label_shift_thresholds",
    "ot/ot_support_distance_identity",
    "uncertainty/entropy_ordering", "uncertainty/hinge_uncertainty_values",
    "uncertainty/sgu_properties", "uncertainty/sgu_monotone_in_hypotheses",
)


@dataclass
class OracleWorkload(Workload):
    """The property suite plus three closed forms on one toy pair."""

    name: str
    n_classes: int
    n: int
    inputs: tuple
    trace_items: int

    def ops(self) -> list:
        return [f"check:{c}" for c in SUITE_CASES] + list(CLOSED_FORMS)

    def run(self, item_seed: int, work_dir: Path) -> ItemOutput:
        import imdot.checks
        import imdot.datagen
        import imdot.imd
        import imdot.measures
        import imdot.ot

        start = time.perf_counter()
        results = imdot.checks.run_suite("all", item_seed)
        source, target = imdot.datagen.generate_pair(imdot.datagen.ToyConfig(
            n_classes=self.n_classes, n_source=self.n, n_target=self.n,
            seed=item_seed))
        t = imdot.measures.empirical_measure(target)
        s = imdot.measures.empirical_measure(source)
        # The source plus every other target atom: half the target mass sits
        # on the shared support, so all three values are nontrivial.
        shared = imdot.measures.DiscreteMeasure(
            np.vstack([s.points, t.points[::2]]),
            np.concatenate([0.5 * s.weights, t.weights[::2]]))
        values = {
            "imd_tv_closed_form": imdot.imd.imd_tv_closed_form(t, shared),
            "imd_f0_support_mass": imdot.imd.imd_f0_support_mass(t, shared),
            "support_distance_imd": imdot.ot.support_distance_imd(t, shared),
        }
        seconds = time.perf_counter() - start
        flags = {f"check:{r.suite}/{r.name}": r.passed for r in results}
        fingerprint = json.dumps(
            [[r.to_dict() for r in results], {k: repr(v) for k, v in values.items()}],
            sort_keys=True).encode()
        return ItemOutput(seconds, values=values, flags=flags, fingerprint=fingerprint)


WORKLOADS = {
    w.name: w for w in (
        SweepWorkload("sweep_k3_n300", n_classes=3, n=300,
                      beta_grid=(0.25, 0.5, 0.75, 1.0), mode="both",
                      inputs=(3000, 3001), trace_items=1),
        SweepWorkload("split_k5_n200_grid11", n_classes=5, n=200,
                      beta_grid=tuple(i / 10 for i in range(11)),
                      mode="per_class_split",
                      inputs=(5000, 5001, 5002), trace_items=2),
        OracleWorkload("oracle_views", n_classes=3, n=300,
                       inputs=tuple(range(7000, 7010)), trace_items=5),
    )
}
