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
from .experiments import MODE_GLOBAL, MODE_SPLIT, run_sweep, write_draws_csv, write_summary_csv
from .measures import (
    ROUNDING_TOL,
    _count,
    _nonnegative,
    _real,
    class_conditionals,
    cost_matrix,
    empirical_measure,
    load_dataset,
    save_dataset,
)
from .ot import (
    TransportPlanSet,
    partial_ot_beta_split,
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
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
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


def _flag(kind, name: str, *args, many: bool = False):
    """The ``type=`` of every flag: its text as a number, or with ``many`` as
    a comma-separated list of numbers, checked by ``kind``, an argument kind
    of :mod:`imdot.measures`, as the argument ``name``.  A ValueError of
    either becomes argparse's own, so a bad flag is an "argument --flag"
    usage error with exit code 2."""

    def number(text: str):
        return int(text) if text.strip().lstrip("+-").isdigit() else float(text)

    def parse(text: str):
        try:
            value = [number(field) for field in text.split(",")] if many else number(text)
            return np.asarray(kind(name, value, *args)).tolist()
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


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
    config = _toy_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    target_measure = empirical_measure(target)
    if args.mode == "global":
        # The global relaxation is the budget split with one class.
        conds, props = [empirical_measure(source)], np.ones(1)
    else:
        conds, props = class_conditionals(source)
    costs = [cost_matrix(target.points, cond.points) for cond in conds]
    if args.mode == "perclass":
        plan_set = partial_ot_per_class(target_measure, conds, props,
                                        np.array(args.beta_vec), costs)
    else:
        plan_set = partial_ot_beta_split(target_measure, conds, props, args.beta, costs)
    return source, target, plan_set, conds, props


def _capacity_audit(plan_set: TransportPlanSet, conds, props) -> list:
    audit = []
    for k, plan in enumerate(plan_set.plans):
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
        source, target, plan_set, conds, props = _solve_from_files(args)
    except Exception as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    payload = plan_set_to_dict(plan_set)
    payload["mode"] = args.mode
    payload["capacity_audit"] = _capacity_audit(plan_set, conds, props)
    (out / "plan.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    outputs = ["plan.json"]
    if args.svg:
        svg = render_plan_svg(source.points, target.points, plan_set,
                              [cond.points for cond in conds],
                              dotted=(args.mode == "global"))
        (out / "plan.svg").write_text(svg)
        outputs.append("plan.svg")
    config = {"mode": args.mode, "beta": args.beta, "beta_vec": args.beta_vec,
              "source": str(args.source), "target": str(args.target)}
    _write_manifest(out, "solve", config, None, outputs, started)
    return 0


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    config = _toy_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_sweep(config, args.beta_grid, args.draws, mode=args.mode,
                       jobs=args.jobs)
    write_draws_csv(result, out / "draws.csv", include_timings=args.timings)
    outputs = ["draws.csv", "config.json"]
    if result.mode == "both":
        write_summary_csv(result, out / "summary.csv")
        outputs.insert(1, "summary.csv")
    sidecar = config.to_dict()
    sidecar.update({"beta_grid": args.beta_grid, "draws": args.draws,
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
                    block_points, dotted: bool = False) -> str:
    """Source circles, target triangles, coupling segments.

    ``block_points[k]`` holds the source points of block ``k``'s columns, in
    column order (the points of its conditional).

    Per-class plans draw solid colored segments; the globally relaxed plan
    is drawn dotted; entries at or below ``ROUNDING_TOL`` are not drawn.  No
    timestamps or other run metadata are embedded.
    """
    size = 640
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
        ti, sj = np.nonzero(plan > ROUNDING_TOL)
        for i, j in zip(ti, sj):
            x1, y1 = sxy(target_points[i])
            x2, y2 = sxy(block_points[k][j])
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
    toy = ToyConfig()
    # Parsed as integers and finite reals here; ToyConfig holds their ranges.
    sub.add_argument("--k", type=_flag(_count, "n_classes", None), default=toy.n_classes,
                     help="number of classes")
    sub.add_argument("--eta", type=_flag(_real, "eta"), default=toy.eta,
                     help="imbalance intensity of the source proportions")
    sub.add_argument("--theta", type=_flag(_real, "theta_degrees"), default=toy.theta_degrees,
                     help="target rotation angle in degrees")
    sub.add_argument("--n-source", "--n", type=_flag(_count, "n_source", None),
                     default=toy.n_source, dest="n_source")
    sub.add_argument("--n-target", type=_flag(_count, "n_target", None), default=0,
                     help="target sample size (defaults to the source size)")
    sub.add_argument("--sigma", type=_flag(_real, "sigma"), default=toy.sigma,
                     help="per-class isotropic standard deviation")
    sub.add_argument("--seed", type=_flag(_count, "seed", None), default=toy.seed)
    sub.add_argument("--config", help="JSON file of flag defaults")
    sub.set_defaults(toy=True)


def build_parser() -> argparse.ArgumentParser:
    """The ``imdot`` parser."""
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
    solve.add_argument("--beta", type=_flag(_nonnegative, "beta"), default=0.5,
                       help="relaxation (global) or total budget (split)")
    solve.add_argument("--beta-vec", type=_flag(_nonnegative, "beta_vec", 1, many=True),
                       default=None,
                       help="comma-separated per-class relaxation (perclass mode)")
    solve.add_argument("--svg", action="store_true", help="also render the plan")
    solve.add_argument("--out", default="out")
    solve.add_argument("--config", help="JSON file of flag defaults")
    solve.set_defaults(func=cmd_solve)

    sweep = subs.add_parser("sweep", help="accuracy sweep over relaxations")
    _add_toy_flags(sweep)
    sweep.add_argument("--beta-grid", type=_flag(_nonnegative, "beta_grid", 1, many=True),
                       default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    sweep.add_argument("--draws", type=_flag(_count, "draws"), default=50)
    sweep.add_argument("--mode", choices=["both", MODE_GLOBAL, MODE_SPLIT],
                       default="both")
    sweep.add_argument("--jobs", type=_flag(_count, "jobs"), default=os.cpu_count() or 1,
                       help="worker processes, at most one per draw")
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
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # The file's values become the subcommand's flag defaults, so flags
        # typed on the command line win.
        _subparser(parser, args.command).set_defaults(**_config_defaults(parser, args))
        args = parser.parse_args(argv)
    if args.command == "solve" and args.mode == "perclass" and args.beta_vec is None:
        _subparser(parser, "solve").error("--mode perclass needs --beta-vec")
    if args.command == "solve" and args.mode != "perclass" and args.beta_vec is not None:
        _subparser(parser, "solve").error(f"--beta-vec applies to --mode perclass only, "
                                          f"not --mode {args.mode}")
    if getattr(args, "toy", False):
        # An invalid toy configuration is a usage error, reported before any
        # output is written.
        try:
            _toy_config(args)
        except ValueError as exc:
            _subparser(parser, args.command).error(str(exc))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
