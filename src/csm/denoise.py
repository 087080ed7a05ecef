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
mass). The mix costs O(2^D) per point and the corner block the ratio call
reads O(D 2^D), with enumeration capped at D = 12.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator

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
    strides = space.indices_of(np.eye(space.ndim, dtype=np.int64))
    limits = [np.uint64(n) for n in space.dims]  # numpy scalars compare faster than ints
    padded = np.append(dist.mass, 0.0)  # out-of-space states read the trailing 0

    def mass(states) -> np.ndarray:
        s = np.asarray(states, dtype=np.int64)
        # negative coordinates wrap to huge unsigned values: one comparison per
        # column checks both ends (.all() along the short last axis is slower)
        u = s.view(np.uint64)
        inside = functools.reduce(np.logical_and, (u[..., d] < n for d, n in enumerate(limits)))
        flat = s @ strides if space.ndim > 1 else s[..., 0]  # no matmul along a length-1 axis
        return padded[np.where(inside, flat, dist.mass.size)]

    def ratio(y, x) -> np.ndarray:
        py, px = mass(y), mass(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.asarray(py / px)
        np.copyto(r, 0.0, where=py == 0.0)  # in place: one block fewer than np.where
        return r

    return ratio


def _cells(x_tilde: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``x_tilde`` as floats, the corners (2^D, M, D) of the unit cells holding its M
    rows (corner k adds bit d of k to coordinate d of floor(x)) and the tent factors
    w (2, D, M) of the lower and upper corners: w[1] = t = x - floor(x), w[0] = 1 - t."""
    x = np.asarray(x_tilde, dtype=np.float64)
    ndim, rows = x.shape[-1], x.reshape(-1, x.shape[-1])
    if ndim > POSTERIOR_DIM_CAP:
        raise ValueError(f"corner enumeration caps at {POSTERIOR_DIM_CAP} dims, got {ndim}")
    corners, w = np.empty((2**ndim,) + rows.shape, dtype=np.int64), np.empty((2, ndim, len(rows)))
    np.floor(rows.T, out=w[0])
    corners[0] = w[0].T
    for d in range(ndim):  # copies and a column add; a broadcast add is slower
        corners[2**d : 2 ** (d + 1)] = corners[: 2**d]
        corners[2**d : 2 ** (d + 1), :, d] += 1
    np.subtract(rows.T, w[0], out=w[1])
    np.subtract(1.0, w[1], out=w[0])
    return x, corners, w


def _tent_levels(w: np.ndarray) -> Iterator[np.ndarray]:
    """Tent weights (2^d, M) of the corners of the cell in dimensions 0..d-1, d = 1..D."""
    level = w[:, 0]
    yield level
    for d in range(1, w.shape[1]):
        level = (w[:, d, None] * level).reshape(-1, w.shape[2])
        yield level


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
    x, corners, tent = _cells(x_tilde)
    *_, weights = _tent_levels(tent)
    w = _corner_masses(corners, ratio_fn) * weights
    total = w.sum(axis=0)
    if not (total > 0).all():
        raise ValueError("posterior has zero total weight at this point")
    w /= total
    return (corners, w) if x.ndim > 1 else (corners[:, 0], w[:, 0])


def denoise_sample(
    x_tilde: np.ndarray, ratio_fn: RatioFn, rng: np.random.Generator
) -> tuple[int, ...] | np.ndarray:
    """Draw a clean state from the corner posterior: a tuple for a point (D,), an
    (M, D) array for a block. One ``rng.random(M)`` picks, per column, the corner
    ``rng.choice(2^D, p=w)`` picks: searchsorted(cdf, u, side="right")."""
    x = np.asarray(x_tilde, dtype=np.float64)
    corners, w = posterior_weights(x.reshape(-1, x.shape[-1]), ratio_fn)
    cdf = w.cumsum(axis=0)
    cdf /= cdf[-1]
    pick = (cdf <= rng.random(cdf.shape[1])).argmin(axis=0)
    clean = corners[pick, np.arange(pick.size)]
    return clean if x.ndim > 1 else tuple(clean[0].tolist())


def recover_stein_score(x_tilde: np.ndarray, ratio_fn: RatioFn) -> np.ndarray:
    """Gradient of the perturbed log-density at a point (D,) or block (M, D).

    The density relative to the reference corner is multilinear in t. A forward
    sweep contracts dimension d at level d, highest first, each lower/upper pair
    (A, B) into A (1 - t_d) + B t_d, down to the density. Each level's B - A summed
    with the tent weights of dimensions 0..d-1 is d density / d t_d: O(2^D), no division.
    """
    x, corners, tent = _cells(x_tilde)
    rel = _corner_masses(corners, ratio_fn)
    del corners  # one (2^D, M, D) block fewer alive below
    upper, diff = rel, np.empty_like(rel)  # B - A of level d in rows [2^d, 2^(d+1))
    for d in reversed(range(tent.shape[1])):
        lower, higher = upper[: 2**d], upper[2**d :]
        np.subtract(higher, lower, out=diff[2**d : 2 ** (d + 1)])
        upper = lower * tent[0, d] + higher * tent[1, d]
    density = upper[0]
    if not (density > 0).all():
        raise ValueError("perturbed density vanishes at this point")
    levels = zip(range(1, tent.shape[1]), _tent_levels(tent))
    grad = [diff[1]] + [np.einsum("km,km->m", w, diff[2**d : 2 ** (d + 1)]) for d, w in levels]
    return (np.stack(grad, axis=-1) / density[:, None]).reshape(x.shape)


def tabular_stein_field(dist: TabularDistribution) -> Callable[[np.ndarray], np.ndarray]:
    """:func:`recover_stein_score` bound to ``make_ratio_fn(dist)``: the
    Langevin field of the tent-perturbed table over particle blocks."""
    return functools.partial(recover_stein_score, ratio_fn=make_ratio_fn(dist))
