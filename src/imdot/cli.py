"""Command-line front door.

Subcommands: ``gen`` (toy dataset pair), ``solve`` (one transport solve with
plan JSON and optional SVG), ``sweep`` (relaxation sweep CSVs) and ``check``
(property suites).  Every run writes a manifest naming its outputs; with a
fixed seed the CSV/JSON data outputs are byte-identical across reruns
(wall-clock lives only in the manifest, and solve timings in the sweep CSV
are opt-in via ``--timings``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib.metadata import PackageNotFoundError, version as pkg_version
from pathlib import Path

import numpy as np

from .checks import run_suite
from .datagen import ToyConfig, generate_pair
from .experiments import run_sweep, write_draws_csv, write_summary_csv
from .measures import (
    class_conditionals,
    cost_matrix,
    empirical_measure,
    load_dataset,
    save_dataset,
    CostMatrix,
)
from .ot import (
    TransportPlanSet,
    partial_ot_beta_split,
    partial_ot_global,
    partial_ot_per_class,
    plan_set_to_dict,
)

__all__ = ["main"]


def _tool_version() -> str:
    try:
        return pkg_version("imdot")
    except PackageNotFoundError:
        return "unknown"


def _write_manifest(out_dir: Path, command: str, config: dict, seed,
                    outputs: list, started: float) -> Path:
    for name in outputs:
        path = out_dir / name
        if not path.exists() or path.stat().st_size == 0:
            raise RuntimeError(f"output {path} is missing or empty")
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "tool_version": _tool_version(),
        "outputs": outputs,
        "wall_clock_s": time.perf_counter() - started,
        "success": True,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def _config_defaults(parser: argparse.ArgumentParser,
                     args: argparse.Namespace) -> dict:
    """Flag defaults from the ``--config`` JSON file, keyed by flag
    destination.  An unreadable or non-JSON file, a key that names no flag
    of the subcommand, and a value the flag would reject are errors."""
    try:
        config = json.loads(Path(args.config).read_text())
    except OSError as exc:
        parser.error(f"--config {args.config}: cannot read the file ({exc.strerror})")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        parser.error(f"--config {args.config}: not a JSON file ({exc})")
    if not isinstance(config, dict):
        parser.error(f"--config {args.config}: expected a JSON object")
    flags = {action.dest: action for action in _subparser(parser, args.command)._actions
             if action.dest not in ("help", "config")}
    unknown = [key for key in config if key.replace("-", "_") not in flags]
    if unknown:
        parser.error(f"--config {args.config}: no {args.command} flag named "
                     + ", ".join(repr(key) for key in unknown))
    defaults = {}
    for key, value in config.items():
        action = flags[key.replace("-", "_")]
        try:
            defaults[action.dest] = _flag_value(action, value)
        except (TypeError, ValueError) as exc:
            parser.error(f"--config {args.config}: {key!r} cannot be {value!r} ({exc})")
    return defaults


def _subparser(parser: argparse.ArgumentParser, command: str):
    (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subs.choices[command]


def _flag_value(action: argparse.Action, value):
    """``value`` as the flag would parse it: JSON booleans for switches, and
    for the rest a string or number, checked by the flag's own type and
    choices as if typed."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise TypeError("a switch takes true or false")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError("expected a string or a number")
    text = value if isinstance(value, str) else json.dumps(value)
    parsed = (action.type or str)(text)
    if action.choices is not None and parsed not in action.choices:
        raise ValueError(f"choose from {', '.join(map(str, action.choices))}")
    return parsed


def _toy_config(args) -> ToyConfig:
    return ToyConfig(
        n_classes=args.k,
        n_source=args.n_source,
        n_target=args.n_target if args.n_target else args.n_source,
        sigma=args.sigma,
        eta=args.eta,
        theta_degrees=args.theta,
        seed=args.seed,
    )


def cmd_gen(args) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = _toy_config(args)
    source, target = generate_pair(config)
    save_dataset(source, out / "source.csv")
    save_dataset(target, out / "target.csv")
    sidecar = config.to_dict()
    sidecar["note"] = "n_target defaults to n_source; sigma is a config choice"
    (out / "config.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))
    _write_manifest(out, "gen", config.to_dict(), config.seed,
                    ["source.csv", "target.csv", "config.json"], started)
    return 0


def _solve_from_files(args):
    source = load_dataset(args.source)
    target = load_dataset(args.target, n_classes=source.n_classes)
    source_measure = empirical_measure(source)
    target_measure = empirical_measure(target)
    cost_full = cost_matrix(target.points, source.points)

    if args.mode == "global":
        value, plan = partial_ot_global(target_measure, source_measure,
                                        cost_full, args.beta)
        indices = [np.arange(len(source))]
        plan_set = TransportPlanSet((plan,), np.array([args.beta]), value)
        conds, props = None, None
    else:
        conds, props = class_conditionals(source)
        class_costs = [CostMatrix(cost_full.entries[:, source.class_indices(k)])
                       for k in range(1, source.n_classes + 1)]
        if args.mode == "split":
            plan_set = partial_ot_beta_split(target_measure, conds, props,
                                             args.beta, class_costs)
        else:
            if args.beta_vec is None:
                raise ValueError("--mode perclass needs --beta-vec")
            beta_vec = np.array([float(v) for v in args.beta_vec.split(",")])
            plan_set = partial_ot_per_class(target_measure, conds, props,
                                            beta_vec, class_costs)
        indices = [source.class_indices(k) for k in range(1, source.n_classes + 1)]
    return source, target, plan_set, indices, conds, props


def _capacity_audit(plan_set: TransportPlanSet, conds, props) -> list:
    audit = []
    for k, plan in enumerate(plan_set.plans):
        if conds is None:
            cap = float(1.0 + plan_set.beta[0])
            used = float(plan.sum())
        else:
            cap = float((props[k] + plan_set.beta[k]) * conds[k].total_mass)
            used = float(plan.sum())
        audit.append({"class": k + 1, "capacity": cap, "used": used,
                      "slack": cap - used})
    return audit


def cmd_solve(args) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        source, target, plan_set, indices, conds, props = _solve_from_files(args)
    except Exception as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    payload = plan_set_to_dict(plan_set)
    payload["mode"] = args.mode
    payload["capacity_audit"] = _capacity_audit(plan_set, conds, props)
    (out / "plan.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    outputs = ["plan.json"]
    if args.svg:
        svg = render_plan_svg(source.points, target.points, plan_set, indices,
                              dotted=(args.mode == "global"))
        (out / "plan.svg").write_text(svg)
        outputs.append("plan.svg")
    config = {"mode": args.mode, "beta": args.beta, "beta_vec": args.beta_vec,
              "source": str(args.source), "target": str(args.target)}
    _write_manifest(out, "solve", config, None, outputs, started)
    return 0


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = _toy_config(args)
    beta_grid = [float(v) for v in args.beta_grid.split(",")]
    result = run_sweep(config, beta_grid, args.draws, mode=args.mode,
                       jobs=args.jobs)
    write_draws_csv(result, out / "draws.csv", include_timings=args.timings)
    outputs = ["draws.csv", "config.json"]
    if result.mode == "both":
        write_summary_csv(result, out / "summary.csv")
        outputs.insert(1, "summary.csv")
    sidecar = config.to_dict()
    sidecar.update({"beta_grid": beta_grid, "draws": args.draws,
                    "mode": args.mode})
    (out / "config.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))
    manifest_config = dict(sidecar)
    if result.failures:
        manifest_config["failures"] = [list(f) for f in result.failures]
        print(f"{len(result.failures)} solve failures recorded in the manifest",
              file=sys.stderr)
    _write_manifest(out, "sweep", manifest_config, config.seed, outputs, started)
    return 0


def cmd_check(args) -> int:
    results = run_suite(args.suite)
    payload = [r.to_dict() for r in results]
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "check.json").write_text(text)
    else:
        print(text)
    failed = [r for r in results if not r.passed]
    for r in failed:
        print(f"FAILED {r.suite}/{r.name}: {r.detail}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# SVG rendering of transport plans
# ---------------------------------------------------------------------------

_CLASS_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                 "#8c564b", "#e377c2", "#7f7f7f"]


def render_plan_svg(source_points, target_points, plan_set: TransportPlanSet,
                    class_indices, dotted: bool = False,
                    size: int = 640) -> str:
    """Source circles, target triangles, coupling segments.

    Per-class plans draw solid colored segments; the globally relaxed plan
    is drawn dotted.  No timestamps or other run metadata are embedded.
    """
    source_points = np.asarray(source_points)
    target_points = np.asarray(target_points)
    pts = np.vstack([source_points, target_points])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)

    def sxy(p):
        q = (p - lo) / span * (size - 40) + 20
        return f"{q[0]:.2f}", f"{size - q[1]:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for k, plan in enumerate(plan_set.plans):
        color = _CLASS_COLORS[k % len(_CLASS_COLORS)]
        dash = ' stroke-dasharray="4 3"' if dotted else ""
        max_mass = plan.max() if plan.size else 0.0
        if max_mass <= 0:
            continue
        ti, sj = np.nonzero(plan > 1e-12)
        for i, j in zip(ti, sj):
            x1, y1 = sxy(target_points[i])
            x2, y2 = sxy(source_points[class_indices[k][j]])
            opacity = 0.15 + 0.85 * plan[i, j] / max_mass
            parts.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="{color}" stroke-opacity="{opacity:.3f}"{dash}/>'
            )
    for p in source_points:
        x, y = sxy(p)
        parts.append(f'<circle cx="{x}" cy="{y}" r="3.5" fill="none" '
                     f'stroke="black"/>')
    for p in target_points:
        x, y = sxy(p)
        fx, fy = float(x), float(y)
        parts.append(
            f'<polygon points="{fx:.2f},{fy - 4:.2f} {fx - 3.5:.2f},{fy + 3:.2f} '
            f'{fx + 3.5:.2f},{fy + 3:.2f}" fill="black"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_toy_flags(sub):
    sub.add_argument("--k", type=int, default=3, help="number of classes")
    sub.add_argument("--eta", type=float, default=1.0,
                     help="imbalance intensity of the source proportions")
    sub.add_argument("--theta", type=float, default=0.0,
                     help="target rotation angle in degrees")
    sub.add_argument("--n-source", "--n", type=int, default=300, dest="n_source")
    sub.add_argument("--n-target", type=int, default=0,
                     help="target sample size (defaults to the source size)")
    sub.add_argument("--sigma", type=float, default=0.35,
                     help="per-class isotropic standard deviation")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--config", help="JSON file of flag defaults")


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The ``imdot`` parser; ``defaults`` (from ``--config``) become the
    subcommands' flag defaults, so flags typed on the command line win."""
    parser = argparse.ArgumentParser(
        prog="imdot",
        description="Measure discrepancies and per-class partial transport",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a toy source/target pair")
    _add_toy_flags(gen)
    gen.add_argument("--out", default="out", help="output directory")
    gen.set_defaults(func=cmd_gen)

    solve = subs.add_parser("solve", help="solve one transport problem")
    solve.add_argument("--source", required=True, help="source dataset CSV")
    solve.add_argument("--target", required=True, help="target dataset CSV")
    solve.add_argument("--mode", choices=["global", "perclass", "split"],
                       default="split")
    solve.add_argument("--beta", type=float, default=0.5,
                       help="relaxation (global) or total budget (split)")
    solve.add_argument("--beta-vec", default=None,
                       help="comma-separated per-class relaxation (perclass mode)")
    solve.add_argument("--svg", action="store_true", help="also render the plan")
    solve.add_argument("--out", default="out")
    solve.add_argument("--config", help="JSON file of flag defaults")
    solve.set_defaults(func=cmd_solve)

    sweep = subs.add_parser("sweep", help="accuracy sweep over relaxations")
    _add_toy_flags(sweep)
    sweep.add_argument("--beta-grid",
                       default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    sweep.add_argument("--draws", type=int, default=50)
    sweep.add_argument("--mode", choices=["both", "global", "per_class_split"],
                       default="both")
    sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    sweep.add_argument("--timings", action="store_true",
                       help="record wall-clock per solve (breaks byte-identical reruns)")
    sweep.add_argument("--out", default="out")
    sweep.set_defaults(func=cmd_sweep)

    check = subs.add_parser("check", help="run the property suites")
    check.add_argument("--suite", choices=["imd", "ot", "uncertainty", "all"],
                       default="all")
    check.add_argument("--out", default=None,
                       help="directory for check.json (default: stdout)")
    check.set_defaults(func=cmd_check)
    for sub in (gen, solve, sweep):
        sub.set_defaults(**(defaults or {}))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        args = build_parser(_config_defaults(parser, args)).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
