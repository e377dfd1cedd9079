"""Set-up that every benchmark process pays: imports plus one tiny solve.

Run as a script it is one fresh process whose lifetime the benchmark takes
as one ``setup_s`` sample.  It exits nonzero if the warm-up solve is wrong.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_imdot():
    """Import ``imdot`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import imdot
    import imdot.cli  # noqa: F401  (pulls in every layer, SciPy and HiGHS)

    if Path(imdot.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"imdot was imported from {imdot.__file__}, not {SRC}")
    return imdot


def warm_up() -> None:
    """One 2x2 transport solve through the whole LP path."""
    from imdot.measures import DiscreteMeasure, cost_matrix
    from imdot.ot import wasserstein1

    target = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    source = DiscreteMeasure([[0.0, 1.0], [1.0, 1.0]], [0.5, 0.5])
    value, _ = wasserstein1(target, source, cost_matrix(target.points, source.points))
    if abs(value - 1.0) > 1e-9:
        raise RuntimeError(f"warm-up solve returned {value!r}, expected 1.0")


if __name__ == "__main__":
    import_imdot()
    warm_up()
