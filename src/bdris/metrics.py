"""Received-power and spectral-efficiency metrics and result aggregation.

The metrics read Theta only through base station b's reflected user rows
F_b^H Theta (K_b, D), so they take those: ``np.conj(channels.f[b]) @ theta``.

The Monte Carlo trial loop that feeds these metrics, with its redraw policy
for degenerate draws, is ``bdris.experiments._run_sweep``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, PowerConfig, effective_from_rows, zf_precoder


@dataclass(frozen=True)
class TrialResult:
    """Per-user received powers of one trial, grouped by base station."""

    user_powers: tuple[tuple[float, ...], ...]


def sum_power_per_bs(result: TrialResult) -> tuple[float, ...]:
    return tuple(float(sum(powers)) for powers in result.user_powers)


def network_sum_power(result: TrialResult) -> float:
    return float(sum(sum_power_per_bs(result)))


def evaluate_received_powers(channels: ChannelSet, rows: list[np.ndarray],
                             power: PowerConfig) -> TrialResult:
    """Received powers under synchronized zero-forcing precoding.

    ``rows[b]`` holds base station b's reflected user rows F_b^H Theta, with
    Theta at its operating frequency; precoders are derived from the same
    effective channels the signal propagates through.
    """
    per_bs = []
    for b, reflected in enumerate(rows):
        eff = effective_from_rows(channels, b, reflected)
        cross = eff @ zf_precoder(eff)
        per_bs.append(tuple(
            float(np.abs(cross[k, k]) ** 2 * power.p * power.alpha[b][k])
            for k in range(cross.shape[0])
        ))
    return TrialResult(user_powers=tuple(per_bs))


def sum_spectral_efficiency_outdated(channels: ChannelSet, b: int,
                                     rows_actual: np.ndarray, power: PowerConfig) -> float:
    """Sum spectral efficiency of base station b under outdated channel knowledge.

    Precoders are zero-forced against the direct channels alone: the base
    station is unaware of the reflecting surface.  The received symbols
    propagate through the reflected user rows ``rows_actual``, so residual
    inter-user interference enters each SINR.
    """
    precoders = zf_precoder(effective_from_rows(channels, b, np.zeros_like(rows_actual)))
    cross = effective_from_rows(channels, b, rows_actual) @ precoders
    k_users = cross.shape[0]
    se = 0.0
    for k in range(k_users):
        signal = np.abs(cross[k, k]) ** 2 * power.p * power.alpha[b][k]
        interference = sum(
            np.abs(cross[k, u]) ** 2 * power.p * power.alpha[b][u]
            for u in range(k_users) if u != k
        )
        se += math.log2(1.0 + signal / (interference + power.noise))
    return float(se)


@dataclass(frozen=True)
class ResultRow:
    """One curve point; ``samples`` are the per-trial values its ``mean`` and
    ``stderr`` aggregate, in trial order, held in memory only (never in a CSV)."""

    variable: str
    value: object
    architecture: str
    metric: str
    mean: float
    stderr: float
    trials: int
    samples: tuple = ()


@dataclass(frozen=True)
class AggregateResult:
    rows: tuple[ResultRow, ...]

    def row(self, value, architecture: str, metric: str) -> ResultRow:
        hits = [r for r in self.rows
                if r.value == value and r.architecture == architecture and r.metric == metric]
        if len(hits) != 1:
            raise KeyError(f"{len(hits)} rows match ({value}, {architecture}, {metric})")
        return hits[0]

    def curve(self, architecture: str, metric: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(grid values, means, stderrs) of one curve, in row order."""
        rows = [r for r in self.rows
                if r.architecture == architecture and r.metric == metric]
        return (np.array([r.value for r in rows]),
                np.array([r.mean for r in rows]),
                np.array([r.stderr for r in rows]))


def aggregate(samples) -> tuple[float, float]:
    """Sample mean and standard error, accumulated in trial order."""
    arr = np.asarray(samples, dtype=float)
    mean = float(arr.mean())
    stderr = 0.0 if arr.size < 2 else float(arr.std(ddof=1) / np.sqrt(arr.size))
    return mean, stderr
