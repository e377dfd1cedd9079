"""Compute the stored reference values of one workload's inputs.

    python3 perfbench/make_reference.py --workload NAME

Runs every input of the workload once and writes ``reference/<NAME>.json``.
Only run it on a commit whose values are trusted: the benchmark fails any
later op that deviates from these values by more than ``1e-8 * (1 + |v|)``.
An item that fails an invariant or a check case is not written.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from setup_probe import import_imdot
    from workloads import REFERENCE_DIR, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    import_imdot()
    workload = WORKLOADS[args.workload]

    items = {}
    with tempfile.TemporaryDirectory() as work_dir:
        for seed in workload.inputs:
            out = workload.run(seed, Path(work_dir))
            # Against its own values only the invariants and checks can fail.
            bad = workload.failed_ops(out, out.values)
            if bad:
                print(f"item {seed} fails {sorted(bad)}", file=sys.stderr)
                return 1
            items[str(seed)] = out.values
            print(f"item {seed}: {out.seconds:.3f} s", flush=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload.name}.json"
    path.write_text(json.dumps({"workload": workload.name, "items": items},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
