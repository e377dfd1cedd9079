"""Span tracer that wraps public ``imdot`` functions from the outside.

Wrapping rebinds every ``imdot.*`` module attribute that *is* the target
function object, because several modules import names directly (for
example ``checks`` and ``experiments`` bind ``ground_union`` and
``partial_ot_global`` at import).  ``linprog`` as bound in ``imdot.lp`` is
wrapped the same way under the name ``lp.highs``.  Every rebinding is undone
by :meth:`Tracer.uninstall`.

A span is ``(name, start, end, parent)``; spans stay in memory until the
run ends.  A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: Functions wrapped in a traced run, as ``(module, attribute)``.  Spans are
#: named ``<module without the imdot. prefix>.<attribute>``.
TARGETS = (
    ("imdot.cli", "main"),
    ("imdot.checks", "run_suite"),
    ("imdot.datagen", "generate_pair"),
    ("imdot.measures", "empirical_measure"),
    ("imdot.measures", "class_conditionals"),
    ("imdot.measures", "cost_matrix"),
    ("imdot.experiments", "run_sweep"),
    ("imdot.experiments", "propagate_labels"),
    ("imdot.experiments", "write_draws_csv"),
    ("imdot.experiments", "write_summary_csv"),
    ("imdot.ot", "partial_ot_global"),
    ("imdot.ot", "partial_ot_beta_split"),
    ("imdot.ot", "partial_ot_per_class"),
    ("imdot.ot", "wasserstein1"),
    ("imdot.ot", "lipschitz_imd_dual"),
    ("imdot.lp", "solve"),
    ("imdot.lp", "linprog"),
    ("imdot.families", "ground_union"),
    ("imdot.families", "weights_on_ground"),
    ("imdot.imd", "imd_bruteforce"),
    ("imdot.imd", "imd_tv_closed_form"),
    ("imdot.imd", "imd_f0_support_mass"),
    ("imdot.imd", "hdh_imd"),
    ("imdot.imd", "duality_check"),
    ("imdot.uncertainty", "verify_sgu_properties"),
)

#: Top-two class votes closer than this, relative to the top vote, make a
#: near-tie row.
NEAR_TIE_REL = 1e-12


def span_name(module: str, attr: str) -> str:
    if (module, attr) == ("imdot.lp", "linprog"):
        return "lp.highs"
    return f"{module.removeprefix('imdot.')}.{attr}"


def _count_lp(counts: Counter, args, kwargs, result) -> None:
    lp = args[0] if args else kwargs["lp"]
    A = lp.A
    counts["lp.vars"] += lp.n_vars
    counts["lp.rows"] += lp.n_rows
    counts["lp.nnz"] += int(A.nnz) if hasattr(A, "nnz") else int(np.count_nonzero(A))
    counts["lp.iterations"] += int(result.iterations)


def _count_near_ties(counts: Counter, args, kwargs, result) -> None:
    """Rows of the plan whose two largest class votes nearly tie."""
    from imdot.ot import TransportPlanSet

    plan = args[0] if args else kwargs["plan"]
    labels = np.asarray(args[1] if len(args) > 1 else kwargs["source_labels"], dtype=int)
    n_classes = int(labels.max())
    if isinstance(plan, TransportPlanSet):
        indices = [np.flatnonzero(labels == k) for k in range(1, n_classes + 1)]
        plan = plan.full_matrix(indices, len(labels))
    plan = np.asarray(plan, dtype=float)
    votes = np.stack([plan[:, labels == k].sum(axis=1)
                      for k in range(1, n_classes + 1)], axis=1)
    top2 = np.sort(votes, axis=1)[:, -2:]
    near = top2[:, 1] - top2[:, 0] <= NEAR_TIE_REL * np.abs(top2[:, 1])
    counts["experiments.near_tie_rows"] += int(np.count_nonzero(near))


#: Exact counts taken from a wrapped call's arguments and result.
COUNTERS = {
    "lp.solve": _count_lp,
    "experiments.propagate_labels": _count_near_ties,
}


class Tracer:
    """In-memory span recorder over rebinding wrappers."""

    def __init__(self):
        self.spans: list = []       # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patched: list = []    # (module, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        error_key = "lp.errors" if name == "lp.solve" else f"{name}.errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[error_key] += 1
                raise
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "imdot" or n.startswith("imdot."))]
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span_name(module_name, attr), original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def patched_attributes(self) -> list:
        """``(module, attribute, original)`` for every rebinding made."""
        return list(self._patched)

    def layer_table(self) -> dict:
        """Per span name: calls, total ms and self ms (span minus children)."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for (name, start, end, _), children in zip(self.spans, child_s):
            row = table[name]
            row["calls"] += 1
            row["ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - children) * 1e3
        return dict(table)

    def self_ms_total(self) -> float:
        return sum(row["self_ms"] for row in self.layer_table().values())

    def metrics(self) -> dict:
        """Flat ``<layer>.{calls,ms,self_ms}`` plus the exact counts."""
        flat = {}
        for name, row in self.layer_table().items():
            for key, value in row.items():
                flat[f"{name}.{key}"] = value
        flat.update(self.counts)
        return flat
