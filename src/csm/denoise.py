"""Triangular-noise perturbation, posterior denoising, and score recovery.

Integer-valued states perturbed with per-dimension tent noise on (-1, 1)
keep their density ratios at integer points, so a score learned on the
clean data determines everything about the perturbed density. Inside each
unit cell the perturbed density is a tent-weighted mix of the cell's 2^D
corner masses. The corner posterior, the gradient of the perturbed
log-density (the Stein score, hence the Langevin field) and exact
denoising by sampling that posterior all read from this one mix.

Masses enter only through a ratio function ``ratio(y, x) = p(y) / p(x)``
over ``(..., D)`` integer state blocks that broadcast against each other;
:func:`make_ratio_fn` builds one from a table. A state outside the space
has zero mass, 0/0 gives 0 and a positive mass over zero gives inf.
Every function takes a point ``(D,)`` or a block of points ``(M, D)`` and
makes one ratio call per block, against the cell's first corner inside
the space (one more for the points whose reference corner has zero
mass). A point costs O(D 2^D); corner enumeration is capped at D = 12.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .exact import TabularDistribution

POSTERIOR_DIM_CAP = 12

RatioFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def triangular_pdf(u: np.ndarray) -> float | np.ndarray:
    """Density of the product tent distribution, prod_d max(0, 1 - |u_d|).

    The last axis is the dimension axis; leading axes broadcast.
    """
    u = np.asarray(u, dtype=np.float64)
    vals = np.maximum(0.0, 1.0 - np.abs(u))
    out = vals.prod(axis=-1)
    return float(out) if out.ndim == 0 else out


def sample_triangular(shape, rng: np.random.Generator) -> np.ndarray:
    """Tent-distributed draws on (-1, 1) by inverse CDF."""
    u = rng.random(shape)
    return np.where(u < 0.5, np.sqrt(2.0 * u) - 1.0, 1.0 - np.sqrt(2.0 * (1.0 - u)))


def perturb(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Add independent tent noise to integer states ((D,) or (M, D))."""
    x = np.asarray(x, dtype=np.float64)
    return x + sample_triangular(x.shape, rng)


def make_ratio_fn(dist: TabularDistribution) -> RatioFn:
    """Mass ratio p(y) / p(x) over broadcasting (..., D) state blocks, from a table."""
    space = dist.space
    dims = np.asarray(space.dims, dtype=np.uint64)
    strides = space.indices_of(np.eye(space.ndim, dtype=np.int64))
    padded = np.append(dist.mass, 0.0)  # out-of-space states read the trailing 0

    def mass(states) -> np.ndarray:
        s = np.asarray(states, dtype=np.int64)
        # negative coordinates wrap to huge unsigned values: one comparison
        # checks both ends of every range
        inside = (s.view(np.uint64) < dims).all(axis=-1)
        return padded[np.where(inside, s @ strides, dist.mass.size)]

    def ratio(y, x) -> np.ndarray:
        py, px = mass(y), mass(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(py > 0.0, py / px, 0.0)

    return ratio


def _cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unit cells holding the rows of ``x`` (M, D), corner axis first.

    Returns the corner states (2^D, M, D), their bits (2^D, D), where bit d
    of corner k is (k >> d) & 1, and the tent factors (2^D, M, D).
    """
    ndim = x.shape[1]
    if ndim > POSTERIOR_DIM_CAP:
        raise ValueError(f"corner enumeration caps at {POSTERIOR_DIM_CAP} dims, got {ndim}")
    bits = (np.arange(2**ndim)[:, None] >> np.arange(ndim)) & 1
    offset = bits[:, None, :]
    base = np.floor(x)
    corners = base.astype(np.int64) + offset
    tent = (x - base) - (1 - offset)
    np.abs(tent, out=tent)
    return corners, bits, tent


def _corner_masses(corners: np.ndarray, ratio_fn: RatioFn) -> np.ndarray:
    """Corner masses (2^D, M), relative to one positive-mass corner per point.

    The reference is the cell's first corner inside the space, lifting the
    -1 coordinates of a point in (-1, 0) to 0.
    """
    rel = np.asarray(ratio_fn(corners, corners[0] + (corners[0] < 0)), dtype=np.float64)
    over_zero = np.isinf(rel)
    if over_zero.any():
        # the reference corner has zero mass: re-reference to the first
        # corner that came back inf, which has positive mass
        cols = np.flatnonzero(over_zero.any(axis=0))
        ref = corners[over_zero[:, cols].argmax(axis=0), cols]
        rel = rel.copy()
        rel[:, cols] = ratio_fn(corners[:, cols], ref)
    if not rel.any(axis=0).all():
        raise ValueError("all corner masses are zero at this point")
    return rel


def posterior_weights(
    x_tilde: np.ndarray, ratio_fn: RatioFn
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior over the clean integer corners of the cell holding x_tilde.

    Returns (corners, weights) with weights proportional to mass ratio
    times the product of tent factors, normalized to sum to one: (2^D, D)
    and (2^D,) for a point, (2^D, M, D) and (2^D, M) for a block of M
    points. Exact integer coordinates put all of that dimension's weight on
    the lower corner.
    """
    x = np.asarray(x_tilde, dtype=np.float64)
    corners, _, tent = _cells(x.reshape(-1, x.shape[-1]))
    w = _corner_masses(corners, ratio_fn) * tent.prod(axis=2)
    total = w.sum(axis=0)
    if not np.all(total > 0):
        raise ValueError("posterior has zero total weight at this point")
    w /= total
    return (corners, w) if x.ndim > 1 else (corners[:, 0], w[:, 0])


def denoise_sample(
    x_tilde: np.ndarray, ratio_fn: RatioFn, rng: np.random.Generator
) -> tuple[int, ...]:
    """Draw a clean state from the corner posterior."""
    corners, w = posterior_weights(x_tilde, ratio_fn)
    pick = rng.choice(corners.shape[0], p=w)
    return tuple(int(v) for v in corners[pick])


def recover_stein_score(x_tilde: np.ndarray, ratio_fn: RatioFn) -> np.ndarray:
    """Gradient of the perturbed log-density at a point (D,) or block (M, D).

    Dimension d mixes the cell's corner masses into lower/upper
    aggregates A and B using the other dimensions' tent factors; the
    score is (B - A) / (A (1 - t_d) + B t_d). The denominator is the same
    for every d: the perturbed density relative to the reference corner.
    With one dimension this is (r - 1) / (r t + (1 - t)) for the neighbor
    ratio r. The other-dimension products come from prefix and suffix
    products, not by division, since a tent factor is 0 at an integer
    coordinate.
    """
    x = np.asarray(x_tilde, dtype=np.float64)
    corners, bits, tent = _cells(x.reshape(-1, x.shape[-1]))
    rel = _corner_masses(corners, ratio_fn)
    del corners  # one (2^D, M, D) block fewer alive below
    others = np.ones_like(tent)  # others[k, m, d] = prod_{e != d} tent[k, m, e]
    np.cumprod(tent[..., :-1], axis=2, out=others[..., 1:])
    others[..., :-1] *= np.cumprod(tent[..., :0:-1], axis=2)[..., ::-1]
    density = (rel * (others[..., 0] * tent[..., 0])).sum(axis=0)
    if not np.all(density > 0):
        raise ValueError("perturbed density vanishes at this point")
    others *= rel[..., None]
    others *= 2 * bits[:, None, :] - 1  # upper corners count +, lower corners -
    return (others.sum(axis=0) / density[:, None]).reshape(x.shape)


def tabular_stein_field(dist: TabularDistribution) -> Callable[[np.ndarray], np.ndarray]:
    """:func:`recover_stein_score` bound to ``make_ratio_fn(dist)``: the
    Langevin field of the tent-perturbed table over particle blocks."""
    return functools.partial(recover_stein_score, ratio_fn=make_ratio_fn(dist))
