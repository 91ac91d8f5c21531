"""Monte Carlo check of familywise error control and power.

The procedure's rejection thresholds depend on the weights and alpha but
not on observed p-values, so they are solved once up front; each
replication then reduces to threshold comparisons. Replications are
drawn in fixed-size chunks with counter-derived seeds, making the run
deterministic for a given master seed and independent of chunk order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .closure import _check_procedure, decision_thresholds
from .exceptions import InputError
from .intersection import CorrelationModel
from .mvnorm import DEFAULT_ROOT_TOL, DEFAULT_TARGET_ERROR, CorrelationMatrix, as_correlation
from .weighting import WeightingScheme


@dataclass(frozen=True, eq=False)
class SimScenario:
    """A data-generating configuration plus the procedure under test.

    ``generator`` is the true m x m correlation of the test statistics;
    ``model`` is the (possibly coarser) block knowledge the procedure is
    allowed to use. The two are deliberately not checked against each
    other: running a procedure under a misspecified model is a
    legitimate thing to study. Shifts must be exactly zero on true
    nulls, so the null hypotheses hold exactly.
    """

    scheme: WeightingScheme
    model: CorrelationModel
    generator: CorrelationMatrix
    alpha: float
    method: str
    true_nulls: np.ndarray
    mean_shifts: np.ndarray
    replications: int
    master_seed: int = 0

    def __post_init__(self) -> None:
        model, alpha = _check_procedure(self.scheme, self.model, self.alpha, self.method)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "alpha", alpha)
        m = self.scheme.m
        gen = as_correlation(self.generator)
        if gen.dim != m:
            raise InputError(f"generator correlation must be {m} x {m}")
        object.__setattr__(self, "generator", gen)
        nulls = np.asarray(self.true_nulls, dtype=bool)
        if nulls.shape != (m,):
            raise InputError(f"need {m} true-null flags, got shape {nulls.shape}")
        shifts = np.asarray(self.mean_shifts, dtype=float)
        if shifts.shape != (m,):
            raise InputError(f"need {m} mean shifts, got shape {shifts.shape}")
        if not np.all(np.isfinite(shifts)) or np.any(shifts < 0.0):
            raise InputError("mean shifts must be finite and nonnegative")
        if np.any(shifts[nulls] != 0.0):
            raise InputError("mean shifts must be exactly zero on true nulls")
        nulls.setflags(write=False)
        shifts = shifts.copy()
        shifts.setflags(write=False)
        object.__setattr__(self, "true_nulls", nulls)
        object.__setattr__(self, "mean_shifts", shifts)
        if not isinstance(self.replications, (int, np.integer)) or self.replications < 1:
            raise InputError("replications must be a positive integer")
        object.__setattr__(self, "replications", int(self.replications))
        if not isinstance(self.master_seed, (int, np.integer)) or self.master_seed < 0:
            raise InputError("master_seed must be a nonnegative integer")
        object.__setattr__(self, "master_seed", int(self.master_seed))

    @property
    def m(self) -> int:
        return self.scheme.m


@dataclass(frozen=True, eq=False)
class SimReport:
    """Estimated familywise error rate and per-hypothesis rejection rates."""

    fwer_estimate: float
    fwer_stderr: float
    rejection_rates: np.ndarray
    replications: int


def _chunk_size(m: int) -> int:
    # fixed per m so chunk boundaries never depend on the total count
    return max(256, min(1 << 16, (1 << 24) >> m))


def simulate(
    scenario: SimScenario,
    target_error: float = DEFAULT_TARGET_ERROR,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> SimReport:
    """Estimate FWER (any true null rejected) and rejection rates.

    One-sided p-values p = 1 - Phi(z) are formed from z drawn with the
    generator correlation around the mean shifts; the closed procedure
    is applied through precomputed thresholds. Per chunk of replications
    that is one vector comparison per hypothesis against its cutoffs in
    all 2^m - 1 intersections, OR-ed into one boolean buffer; the
    surviving intersections are then packed into bits and H_i is
    rejected when none of them contains it. The buffers are allocated
    once per call, so memory stays at a few bytes per replication and
    intersection of one chunk.
    """
    m = scenario.m
    n_total = scenario.replications
    thresholds = decision_thresholds(
        scenario.scheme,
        scenario.model,
        scenario.alpha,
        scenario.method,
        scenario.master_seed,
        target_error,
        root_tol,
    )
    # a zero local level (zero weight) can never be crossed; give it the
    # same sentinel as non-membership so p = 0.0 does not sneak through.
    # levels[j, r] is hypothesis j's cutoff in intersection r (mask r + 1)
    levels = np.ascontiguousarray(np.where(thresholds > 0.0, thresholds, -1.0).T)
    n_rows = levels.shape[1]
    masks = np.arange(1, n_rows + 1)
    # containing[i]: bit r set when hypothesis i is a member of intersection
    # r, packed along the intersection axis as np.packbits lays it out
    containing = np.packbits(((masks >> np.arange(m)[:, None]) & 1).astype(bool), axis=1)
    lower = scenario.generator.cholesky_lower()
    shifts = scenario.mean_shifts
    nulls = scenario.true_nulls
    chunk = _chunk_size(m)
    # one set of buffers for the whole run; a short last chunk uses a prefix
    fired = np.empty((chunk, n_rows), dtype=bool)
    hit = np.empty((chunk, n_rows), dtype=bool)
    kept = np.empty((chunk, containing.shape[1]), dtype=np.uint8)
    rejected = np.empty((chunk, m), dtype=bool)
    reject_counts = np.zeros(m, dtype=np.int64)
    fwer_count = 0
    done = 0
    chunk_index = 0
    while done < n_total:
        n_c = min(chunk, n_total - done)
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=scenario.master_seed, spawn_key=(chunk_index,)
            )
        )
        z = rng.standard_normal((n_c, m)) @ lower.T + shifts
        p = ndtr(-z)
        # fired[n, r]: some member of intersection r crossed its cutoff
        f, h = fired[:n_c], hit[:n_c]
        np.less_equal(p[:, 0, None], levels[0], out=f)
        for j in range(1, m):
            np.less_equal(p[:, j, None], levels[j], out=h)
            f |= h
        # H_i is rejected when no intersection containing it survives
        survived = np.packbits(np.logical_not(f, out=f), axis=1)
        k, rej = kept[:n_c], rejected[:n_c]
        for i in range(m):
            np.bitwise_and(survived, containing[i], out=k)
            np.logical_not(k.any(axis=1), out=rej[:, i])
        reject_counts += rej.sum(axis=0)
        if nulls.any():
            fwer_count += int(rej[:, nulls].any(axis=1).sum())
        done += n_c
        chunk_index += 1
    fwer = fwer_count / n_total
    stderr = float(np.sqrt(fwer * (1.0 - fwer) / n_total))
    rates = reject_counts / n_total
    rates.setflags(write=False)
    return SimReport(
        fwer_estimate=float(fwer),
        fwer_stderr=stderr,
        rejection_rates=rates,
        replications=n_total,
    )
