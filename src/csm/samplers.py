"""Sampling from learned scores.

Metropolis-Hastings walks the undirected view of the neighborhood graph.
:func:`run_chain` takes its density ratios from one of two sources:

- a density model (one with ``log_mass_unnorm``) is evaluated once over
  the whole space; the edge ratios along any path telescope, so every
  ratio is q(there) / q(here) = exp(log q(there) - log q(here));
- any other model fills a table with one ratio per undirected-view
  entry from one ``score_vector`` read over the whole space: the score
  entry of whichever directed edge exists, inverted when the edge points
  backwards. Ratios below zero (entries under -1) are clamped to zero and
  counted; a path multiplies the ratios of its unit steps, and a zero
  blocks it even next to an inf.

On chain, cycle and grid structures the chain proposes straight-line
paths: it picks a line (a grid dimension and a sign, or a sign in flat
order for chains and cycles), draws a length log-uniformly on 1..n-1 for
a line of n cells, and proposes the state that many cells along it.
Paths that run off a drop boundary or a chain end are rejected; otherwise
the acceptance is min(1, ratio), with no degree correction since the
proposal is symmetric. Other structures propose one neighbor uniformly
among states adjacent in either direction and include the proposal-degree
correction. A NaN ratio anywhere raises :class:`NaNRatioError`.

An annealed wrapper chains final states across a model sequence, and a
Langevin integrator serves the continuous denoising pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graphs import NeighborhoodStructure, State, csr_rows, is_weakly_connected


class NaNRatioError(FloatingPointError):
    """A density ratio needed by Metropolis-Hastings is NaN."""


@dataclass
class ChainState:
    """What :func:`run_chain` reports about its chain."""

    current: State
    step: int = 0
    accepted: int = 0
    proposed: int = 0
    clamped: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0


def _check_nan(structure, values: np.ndarray):
    """Raise :class:`NaNRatioError` at the first NaN of an undirected-view array."""
    nan = np.flatnonzero(np.isnan(values))
    if nan.size:
        indptr, dst, _, _ = structure.undirected_view()
        u = int(np.searchsorted(indptr, nan[0], side="right")) - 1
        there = structure.space.state_of(int(dst[nan[0]]))
        raise NaNRatioError(f"NaN density ratio on edge {structure.space.state_of(u)} -> {there}")


def _log_mass_ratio(score_model, structure):
    """ratio(here, there) = q(there) / q(here) from one log-mass pass over the space."""
    lm = score_model.log_mass_unnorm(structure.space.all_states())
    indptr, dst, _, _ = structure.undirected_view()
    with np.errstate(invalid="ignore"):
        _check_nan(structure, lm[dst] - lm[csr_rows(indptr)[0]])
    lm = lm.tolist()
    return lambda here, there: math.exp(lm[there] - lm[here])


def _edge_ratio_table(score_model, structure) -> np.ndarray:
    """Density ratio for every undirected-view entry, from one block read of the
    score over the space: a forward entry reads its source's score vector, a
    reverse entry its target's, inverted."""
    indptr, dst, pos, fwd = structure.undirected_view()
    owner = np.where(fwd, csr_rows(indptr)[0], dst)
    c = score_model.score_vector(structure, structure.space.all_states())
    ratios = c[structure.adjacency()[0][owner] + pos] + 1.0
    with np.errstate(divide="ignore"):
        ratios[~fwd] = np.where(ratios[~fwd] == 0, np.inf, 1.0 / ratios[~fwd])
    _check_nan(structure, ratios)
    return ratios


def _path_lines(structure: NeighborhoodStructure) -> list[tuple[int, int, bool]] | None:
    """(stride, cells, wraps) of each line path proposals follow, or None.

    A grid has one line per dimension; a binary dimension always wraps,
    since both of its moves are the same bit flip. Chains and cycles have
    the single flat-order line.
    """
    space = structure.space
    if structure.kind in ("chain", "cycle"):
        return [(1, space.total_states, structure.kind == "cycle")]
    if structure.kind == "grid":
        wrap = structure.boundary == "wrap"
        strides = space.indices_of(np.eye(space.ndim, dtype=np.int64))  # flat index of e_d
        return [(int(s), n, wrap or n == 2) for s, n in zip(strides, space.dims)]
    return None


def _unit_step_ratios(structure, ratios: np.ndarray, lines) -> np.ndarray:
    """Ratio of the one-cell step from every state along every line, both signs.

    Entry [a, j, u] is the undirected-view ratio from u to the state one
    cell along line a in sign (+1, -1)[j]. Steps off a drop boundary have
    no entry; they are never read and hold 0.
    """
    indptr, dst, _, _ = structure.undirected_view()
    n = structure.space.total_states
    src, _ = csr_rows(indptr)
    keys = src * n + dst
    order = np.argsort(keys)
    keys = keys[order]
    u = np.arange(n, dtype=np.int64)
    out = np.zeros((len(lines), 2, n))
    for a, (stride, cells, wrap) in enumerate(lines):
        v = (u // stride) % cells
        for j, sign in enumerate((1, -1)):
            ok = wrap | ((v + sign >= 0) & (v + sign < cells))
            target = u[ok] + ((v[ok] + sign) % cells - v[ok]) * stride
            out[a, j, ok] = ratios[order[np.searchsorted(keys, u[ok] * n + target)]]
    return out


def _uniform_rows(rng: np.random.Generator, steps: int):
    """The rows of rng.random((steps, 4)), drawn 16,384 at a time: the same
    stream as one random(3) and one random() per step."""
    for start in range(0, steps, 1 << 14):
        yield from rng.random((min(1 << 14, steps - start), 4)).tolist()


def _path_proposal(lines, rows, density_ratio, step_ratios):
    """Straight-line path proposal: here -> (there, ratio, acceptance uniform).
    The ratio is ``density_ratio``'s, else the product of the unit-step ratios."""
    log_cells = [math.log(cells) for _, cells, _ in lines]
    n_lines = len(lines)

    def propose(here: int) -> tuple[int, float, float]:
        u_line, u_sign, u_len, u = next(rows)
        a = int(u_line * n_lines)
        stride, cells, wrap = lines[a]
        sign = 1 if u_sign < 0.5 else -1
        # floor(cells ** u): log-uniform on 1..cells-1 (the min guards rounding)
        length = min(int(math.exp(u_len * log_cells[a])), cells - 1)
        v = (here // stride) % cells
        if not wrap and not 0 <= v + sign * length < cells:
            return here, 0.0, u
        there = here + ((v + sign * length) % cells - v) * stride
        if density_ratio is not None:
            return there, density_ratio(here, there), u
        path = here + ((v + sign * np.arange(length)) % cells - v) * stride
        seg = step_ratios[a, (1 - sign) // 2, path]
        # a clamped (zero) edge blocks the path even next to an infinite one
        return there, float(seg.prod()) if seg.all() else 0.0, u

    return propose


def _single_step_proposal(structure, rng, density_ratio, ratios):
    """Uniform undirected-neighbor proposal: here -> (there, degree-corrected
    ratio, acceptance uniform)."""
    indptr, dst, _, _ = structure.undirected_view()
    degs = np.diff(indptr)

    def propose(here: int) -> tuple[int, float, float]:
        deg = degs[here]
        if deg == 0:
            raise ValueError(f"state {structure.space.state_of(here)} has no neighbors to propose")
        k = indptr[here] + rng.integers(0, deg)
        there = int(dst[k])
        ratio = density_ratio(here, there) if density_ratio is not None else ratios[k]
        return there, ratio * deg / degs[there], rng.random()

    return propose


def run_chain(
    score_model,
    structure: NeighborhoodStructure,
    init: Sequence[int],
    steps: int,
    burn_in: int = 0,
    thin: int = 1,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> tuple[np.ndarray, ChainState]:
    """Run Metropolis-Hastings and return (kept states, final chain state).

    Chain, cycle and grid structures use straight-line path proposals,
    other kinds the single-step undirected proposal (see the module
    docstring). A density model costs one ``log_mass_unnorm`` pass over
    the space per call and O(1) per step; any other model costs one
    ``score_vector`` read over the space per call, and a path
    costs time proportional to its length. Negative ratios (score entries
    under -1) are clamped to zero and counted in ``clamped``; a NaN ratio
    anywhere raises :class:`NaNRatioError` before the first step.

    Keeps every ``thin``-th state after ``burn_in`` steps; ``steps=0``
    returns just the initial state. Refuses to start on a structure whose
    undirected view is disconnected; the check runs once per structure. The
    space must be enumerable: the check and the ratios cover the whole
    space, so a non-enumerable space raises ``EnumerationCapExceeded``.
    """
    space = structure.space
    init = space.validate_state(init)
    if steps < 0 or burn_in < 0 or thin < 1:
        raise ValueError("steps and burn_in must be >= 0, thin >= 1")
    if steps and burn_in >= steps:
        raise ValueError("need steps > burn_in")
    if not is_weakly_connected(structure):
        raise ValueError("structure is not weakly connected; the chain cannot be ergodic")
    rng = rng if rng is not None else np.random.default_rng(seed)
    if steps == 0:
        return np.asarray([init], dtype=np.int64), ChainState(current=init)

    lines = _path_lines(structure)
    density_ratio = ratios = step_ratios = None
    clamped = 0
    if hasattr(score_model, "log_mass_unnorm"):
        density_ratio = _log_mass_ratio(score_model, structure)
    else:
        ratios = _edge_ratio_table(score_model, structure)
        clamped = int((ratios < 0).sum())
        ratios = np.maximum(ratios, 0.0)
        if lines is not None:
            step_ratios = _unit_step_ratios(structure, ratios, lines)
    if lines is None:
        propose = _single_step_proposal(structure, rng, density_ratio, ratios)
    else:
        propose = _path_proposal(lines, _uniform_rows(rng, steps), density_ratio, step_ratios)

    kept: list[int] = []
    here, accepted = space.index_of(init), 0
    for step in range(1, steps + 1):
        there, ratio, u = propose(here)
        if u < ratio:
            here, accepted = there, accepted + 1
        if step > burn_in and (step - burn_in) % thin == 0:
            kept.append(here)
    chain = ChainState(space.state_of(here), steps, accepted, steps, clamped)
    return space.states_of(np.asarray(kept, dtype=np.int64)), chain


def run_annealed(
    score_models: Sequence,
    structure: NeighborhoodStructure,
    init: Sequence[int],
    steps_per_level: int,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    burn_in: int = 0,
    thin: int = 1,
) -> tuple[np.ndarray, ChainState]:
    """Run one chain per model (highest noise first), chaining final states.

    Returns the kept samples of the last level. With a single model this
    is exactly :func:`run_chain`.
    """
    if not score_models:
        raise ValueError("need at least one score model")
    rng = rng if rng is not None else np.random.default_rng(seed)
    current = structure.space.validate_state(init)
    samples = None
    chain = None
    for model in score_models:
        samples, chain = run_chain(
            model, structure, current, steps_per_level, burn_in=burn_in, thin=thin, rng=rng
        )
        current = chain.current
    return samples, chain


def langevin(
    score_fn: Callable[[np.ndarray], np.ndarray],
    init: np.ndarray,
    step_size: float,
    steps: int,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    burn_in: int = 0,
    thin: int = 1,
    noise_scale: float = 1.0,
    clamp: tuple[float, float] | None = None,
) -> np.ndarray:
    """Unadjusted Langevin updates x += (eps/2) s(x) + sqrt(eps) noise.

    ``init`` may be a single point (D,) or a particle block (M, D);
    ``score_fn`` must be vectorized over rows in the latter case. Returns
    the post-burn-in, thinned trajectory stacked on a new leading axis.
    ``noise_scale=0`` gives plain gradient ascent on the log-density;
    ``clamp`` box-projects after every step, for bounded-support targets.
    """
    if step_size <= 0:
        raise ValueError("step_size must be positive")
    rng = rng if rng is not None else np.random.default_rng(seed)
    x = np.array(init, dtype=np.float64)
    root = np.sqrt(step_size)
    kept = []
    for step in range(1, steps + 1):
        s = np.asarray(score_fn(x), dtype=np.float64)
        if not np.all(np.isfinite(s)):
            raise FloatingPointError(f"non-finite score at step {step}")
        x = x + 0.5 * step_size * s
        if noise_scale:
            x = x + noise_scale * root * rng.standard_normal(x.shape)
        if clamp is not None:
            x = np.clip(x, clamp[0], clamp[1])
        if step > burn_in and (step - burn_in) % thin == 0:
            kept.append(x.copy())
    return np.stack(kept) if kept else np.empty((0,) + x.shape)
