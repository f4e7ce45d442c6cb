"""Workloads of the gpprec CLI benchmark.

Each workload is one ``gpprec estimate`` configuration.  The benchmark's
workload seed shifts the CLI's ``--seeds`` list; the site clouds stay fixed
by the CLI.  A run calls the CLI with ``SEED_LISTS`` disjoint seed lists in
turn, and no two workload seeds share a seed list.

``--b`` is fixed on the blockwise workloads because the rule
``b = ceil(log(N * kappa))`` with the exact kappa gives b = 17-21 at these
sizes: windows would span most of the lattice and the relative error would
reach 1.8-896.  Truths stay at 512 vertices or fewer, because above that
the power iteration in ``linalg.condition_number`` runs for minutes or
raises ``NumericalFailure``.
"""

from __future__ import annotations

from dataclasses import dataclass

# The error metrics pool the rows of this many seed lists.  The error of a
# row is deterministic, but across workload seeds it varies with the
# samples; pooling keeps that spread within the metrics' bounds.
SEED_LISTS = 5


@dataclass(frozen=True)
class Workload:
    """One ``estimate`` run and the route every one of its rows must take.

    A row passes the route check when its ``path`` starts with ``path`` and,
    if ``b`` is set, its block width equals ``b``.
    """

    name: str
    flags: tuple
    n: tuple
    seed_count: int
    path: str
    b: int | None

    @property
    def rows(self) -> int:
        return len(self.n) * self.seed_count

    def seeds(self, seed: int, block: int) -> list:
        """Seed list ``block`` (0 to ``SEED_LISTS - 1``) of workload seed ``seed``."""
        first = (seed * SEED_LISTS + block) * self.seed_count
        return list(range(first, first + self.seed_count))

    def argv(self, seed: int, block: int, out: str) -> list:
        return [
            "estimate",
            *self.flags,
            "--n", ",".join(str(n) for n in self.n),
            "--seeds", ",".join(str(s) for s in self.seeds(seed, block)),
            "--timing",
            "--out", out,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Each row inverts 64 windows of up to 225 vertices, so estimator and
        # linalg changes show (Gram tiles, solving only the kept columns).
        # Its setup is mostly a measure_cloud the lattice route never reads.
        Workload(
            name="lattice-2d",
            flags=("--model", "laplacian", "--d", "2", "--p", "22", "--s", "2", "--b", "3"),
            n=(1000, 4000),
            seed_count=6,
            path="blockwise",
            b=3,
        ),
        # 500 jittered sites matched onto a 795-node chain (37 % padding).
        # Windows are many and small (at most 40 vertices), so per-window
        # overhead, matching and padding count, and BLAS throughput does not.
        # A full-Gram design ran 2x slower in this regime.
        Workload(
            name="scattered-1d",
            flags=("--model", "matern", "--d", "1", "--p", "500", "--b", "8"),
            n=(2000, 8000),
            seed_count=4,
            path="blockwise",
            b=8,
        ),
        # Maximin order into q = 4 levels (5/25/84/370), the exact factor
        # context, full inverses per scale and the dense 2-norm error.
        # gpprec.estimator never runs here, so an estimator change should
        # leave this workload unchanged.
        Workload(
            name="factor-2d",
            flags=("--model", "laplacian", "--d", "2", "--p", "22", "--s", "2",
                   "--factor", "cholesky"),
            n=(1000, 4000),
            seed_count=8,
            path="multiscale",
            b=None,
        ),
    )
}
