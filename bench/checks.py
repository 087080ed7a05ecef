"""Correctness checks the benchmark runs on each workload's outputs.

Each check compares a program output with a computation made apart from
it (an enumerated objective, a softmax, a central difference, i.i.d.
draws from a known table) or with a property the method must have (mass
sums to one, particles stay in their clamp box). Every check returns a
:class:`Check`; ``bench/test_checks.py`` shows each one failing on a
deliberately wrong input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    limit: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: measured={self.measured:.3e} limit={self.limit:.3e}"


def at_most(name: str, measured: float, limit: float) -> Check:
    measured = float(measured)
    return Check(name, measured, float(limit), bool(np.isfinite(measured) and measured <= limit))


def below(name: str, measured: float, limit: float) -> Check:
    measured = float(measured)
    return Check(name, measured, float(limit), bool(np.isfinite(measured) and measured < limit))


def tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def histogram(indices: np.ndarray, bins: int) -> np.ndarray:
    counts = np.bincount(np.asarray(indices, dtype=np.int64), minlength=bins)
    if counts.size != bins:
        raise ValueError(f"index out of range for {bins} bins")
    return counts / counts.sum()


def coarsen(mass: np.ndarray, labels: np.ndarray, bins: int) -> np.ndarray:
    """Mass summed into ``bins`` groups by a per-state group label."""
    return np.bincount(labels, weights=mass, minlength=bins)


def iid_floor(mass: np.ndarray, n: int, rng: np.random.Generator, reps: int = 5) -> float:
    """Median TV between ``mass`` and the histogram of n i.i.d. draws from it."""
    mass = np.asarray(mass, dtype=np.float64)
    return float(
        np.median([tv(histogram(rng.choice(mass.size, size=n, p=mass), mass.size), mass)
                   for _ in range(reps)])
    )


def within_floor(
    name: str, indices: np.ndarray, mass: np.ndarray, multiple: float, rng: np.random.Generator
) -> Check:
    """TV(histogram of ``indices``, mass) within ``multiple`` x the i.i.d. floor.

    The floor is the TV that the same number of exact draws from ``mass``
    reaches, so the check is independent of how many states there are.
    """
    indices = np.asarray(indices, dtype=np.int64)
    floor = iid_floor(mass, indices.size, rng)
    return at_most(name, tv(histogram(indices, mass.size), mass), multiple * floor)


def mc_matches_exact(name: str, model, batch: np.ndarray, structure, reverse_index,
                     tol: float = 1e-10) -> Check:
    """Full-neighbourhood ``csm_mc_loss`` on a batch against ``jcsm_exact``
    on that batch's histogram: value and every gradient entry."""
    from csm import objectives as obj
    from csm.exact import TabularDistribution

    mc = obj.csm_mc_loss(model, batch, structure, reverse_index, np.random.default_rng(0))
    hist = TabularDistribution.from_samples(structure.space, batch)
    exact = obj.jcsm_exact(model, hist, structure)
    worst = abs(mc.value - exact.value)
    for key, grad in mc.grads.items():
        worst = max(worst, float(np.abs(grad - exact.grads[key]).max()))
    return at_most(name, worst, tol)


def masses_match(name: str, got: np.ndarray, want: np.ndarray, tol: float = 1e-9) -> Check:
    return at_most(name, float(np.abs(np.asarray(got) - np.asarray(want)).max()), tol)


def sums_to_one(name: str, mass: np.ndarray, tol: float = 1e-9) -> Check:
    return at_most(name, abs(float(np.sum(mass)) - 1.0), tol)


def all_equal(name: str, counts: np.ndarray, value: int) -> Check:
    """Number of entries of ``counts`` that differ from ``value`` (must be 0)."""
    return at_most(name, int(np.count_nonzero(np.asarray(counts) != value)), 0)


def tv_lowered(name: str, tv_before: float, tv_after: float) -> Check:
    return below(name, tv_after, tv_before)


def inside_box(name: str, particles: np.ndarray, lo: float, hi: float) -> Check:
    """Number of particle coordinates outside [lo, hi] (must be 0)."""
    p = np.asarray(particles)
    return at_most(name, int(np.count_nonzero(~((p >= lo) & (p <= hi)))), 0)


def corners_of_cells(name: str, denoised: np.ndarray, particles: np.ndarray) -> Check:
    """Denoised coordinates that are not floor(x) or floor(x) + 1 (must be 0)."""
    base = np.floor(np.asarray(particles)).astype(np.int64)
    off = np.asarray(denoised, dtype=np.int64) - base
    return at_most(name, int(np.count_nonzero((off != 0) & (off != 1))), 0)


def stein_matches_central_difference(name: str, mass: np.ndarray, recover, rng,
                                     points: int = 100, tol: float = 1e-6) -> Check:
    """1-D perturbed score ``recover(x)`` against a central difference of
    log(sum_k mass_k tent(x - k)), the tent convolution computed here."""
    k = np.arange(mass.size, dtype=np.float64)

    def convolved(x: float) -> float:
        return float((mass * np.maximum(0.0, 1.0 - np.abs(x - k))).sum())

    h = 1e-6
    worst = 0.0
    for _ in range(points):
        x = float(rng.uniform(0.05, mass.size - 1.05))
        if abs(x - round(x)) < 1e-3:
            x += 0.01  # the convolution has a kink at integers
        numeric = (np.log(convolved(x + h)) - np.log(convolved(x - h))) / (2 * h)
        worst = max(worst, abs(float(recover(x)) - numeric))
    return at_most(name, worst, tol)
