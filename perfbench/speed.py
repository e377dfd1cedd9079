"""Machine-speed reference: a fixed batch of work that uses no imdot code.

On the container this benchmark was defined on, identical work drifted in
speed by up to a third within minutes, and the process CPU time drifted
with the wall time.  A run therefore times this batch after each set-up
sample and after each item, for a twentieth of the item's time.  The
batch's median time against ``REFERENCE_S`` is the run's speed factor, by
which the end-to-end times are scaled to a machine of reference speed.  The batch mixes interpreted Python, NumPy and a HiGHS
solve, the three kinds of work the workloads do.
"""

import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

#: Median batch time on the 2-core container the benchmark was defined on.
REFERENCE_S = 0.17


class SpeedProbe:
    """Times the reference batch and keeps every sample."""

    def __init__(self, n: int = 60):
        rng = np.random.default_rng(0)
        self.cost = rng.random(n * n)
        rows = np.concatenate([np.repeat(np.arange(n), n), n + np.tile(np.arange(n), n)])
        cols = np.tile(np.arange(n * n), 2)
        self.A_eq = sp.csr_matrix((np.ones(2 * n * n), (rows, cols)), shape=(2 * n, n * n))
        self.b_eq = np.full(2 * n, 1.0 / n)
        self.points = rng.random((200, 2))
        self.samples = []

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i
        for _ in range(30):
            diff = self.points[:, None] - self.points[None]
            np.sqrt((diff ** 2).sum(axis=-1)).min(axis=1)
        for _ in range(3):
            res = linprog(self.cost, A_eq=self.A_eq, b_eq=self.b_eq, method="highs")
            if res.status != 0:
                raise RuntimeError(f"reference solve failed: {res.message}")
        self.samples.append(time.perf_counter() - start)

    def sample_for(self, seconds: float) -> None:
        """Time the batch at least once, and again until ``seconds`` have passed."""
        start = time.perf_counter()
        self.sample()
        while time.perf_counter() - start < seconds:
            self.sample()

    def factor(self) -> float:
        """Above 1 when this run's machine is faster than the reference."""
        return REFERENCE_S / statistics.median(self.samples)
