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
  counted.

On chain, cycle and grid structures the chain proposes straight-line
paths along the structure's lines (a grid dimension, or the flat order):
it picks a line and a sign, draws a length log-uniformly on 1..n-1 for a
line of n cells, and proposes the state that many cells along it. A path
multiplies the ratios of its unit steps, where a zero blocks it even next
to an inf; each step's ratio sits at its slot under ``graphs.line_moves``,
the one rule for slot order. Paths that run off a drop boundary or a chain
end are rejected; otherwise the acceptance is min(1, ratio), with no degree
correction since the proposal is symmetric. Each block of ``BLOCK`` steps
draws its uniforms as one (n, 4) array and prepares lines and lengths in
numpy; one scalar loop then walks flat indices. Other structures propose
one neighbor uniformly among states adjacent in either direction and
include the proposal-degree correction. A NaN ratio anywhere raises
:class:`NaNRatioError`.

An annealed wrapper chains final states across a model sequence, and a
Langevin integrator serves the continuous denoising pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exact import NaNRatioError, check_nan  # NaNRatioError is re-exported here
from .graphs import NeighborhoodStructure, State, csr_rows, is_weakly_connected

BLOCK = 1 << 14  # MH steps prepared and recorded at a time


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


def _edge_ratio_table(score_model, structure) -> np.ndarray:
    """Density ratio for every undirected-view entry, from one block read of the
    score over the space: a forward entry reads its source's score vector, a
    reverse entry its target's, inverted."""
    indptr, dst, pos, fwd = structure.undirected_view()
    src = csr_rows(indptr)[0]
    c = score_model.score_vector(structure, structure.space.all_states())
    ratios = c[structure.adjacency()[0][np.where(fwd, src, dst)] + pos] + 1.0
    with np.errstate(divide="ignore"):
        ratios[~fwd] = np.where(ratios[~fwd] == 0, np.inf, 1.0 / ratios[~fwd])
    check_nan(structure.space, ratios, src, dst, "density ratio")
    return ratios


def _unit_step_ratios(structure, ratios: np.ndarray) -> np.ndarray:
    """Ratio of the one-cell step from every state along every line, both signs:
    entry [a, j, u] is the undirected-view ratio from u to the state one cell
    along line a in sign (+1, -1)[j], at u's row start plus the move's slot, as
    the view holds the lines' moves. A two-cell wrapping line's flip serves both
    signs; steps off a drop boundary hold 0, unread."""
    start = structure.undirected_view()[0][:-1]
    lines = structure.lines()
    u = np.arange(start.size, dtype=np.int64)
    moves, _ = structure.moves([u // stride % cells for stride, cells, _ in lines])
    out = np.zeros((len(lines), 2, u.size))
    for a, sign, exists, slot in moves:
        out[a, (1 - sign) // 2][exists] = ratios[(start + slot)[exists]]
    flip = np.array([wrap and cells == 2 for _, cells, wrap in lines])
    out[flip, 1] = out[flip, 0]
    return out


def _path_walk(lines, rng, lm, step_ratios):
    """Path proposals: (here, n) -> (state after each of n steps, final state,
    accepted). Each step reads one row of rng.random((n, 4)); its ratio is
    exp(lm[there] - lm[here]) for log masses ``lm``, else the product of the
    path's unit-step ratios."""
    cells = np.array([c for _, c, _ in lines])
    log_cells = np.array([math.log(c) for _, c, _ in lines])
    items = [(stride, c, wrap, a) for a, (stride, c, wrap) in enumerate(lines)]
    exp = math.exp

    def walk(here: int, n: int) -> tuple[list[int], int, int]:
        u_line, u_sign, u_len, u_acc = rng.random((n, 4)).T
        a = (u_line * len(lines)).astype(np.int64)
        # floor(cells ** u), log-uniform on 1..cells-1; math.exp, as np.exp can be an ulp off
        length = np.fromiter(map(exp, (u_len * log_cells[a]).tolist()), np.float64, n)
        length = np.minimum(length.astype(np.int64), cells[a] - 1)
        signed = np.where(u_sign < 0.5, length, -length).tolist()
        trace, accepted = [], 0
        for (stride, c, wrap, i), d, u in zip(map(items.__getitem__, a.tolist()), signed,
                                               u_acc.tolist()):
            v = here // stride % c
            if wrap or 0 <= v + d < c:
                there = here + ((v + d) % c - v) * stride
                if lm is not None:
                    ratio = exp(lm[there] - lm[here])
                else:
                    sign = 1 if d > 0 else -1
                    path = here + ((v + np.arange(0, d, sign)) % c - v) * stride
                    seg = step_ratios[i, (1 - sign) // 2, path]
                    # a clamped (zero) edge blocks the path even next to an infinite one
                    ratio = float(seg.prod()) if seg.all() else 0.0
                if u < ratio:
                    here, accepted = there, accepted + 1
            trace.append(here)
        return trace, here, accepted

    return walk


def _neighbor_walk(structure, rng, lm, ratios):
    """Uniform undirected-neighbor proposals, degree-corrected, with one
    ``integers`` then one ``random`` draw per step; as :func:`_path_walk`."""
    indptr, dst, _, _ = structure.undirected_view()
    degs = np.diff(indptr)

    def walk(here: int, n: int) -> tuple[list[int], int, int]:
        trace, accepted = [], 0
        for _ in range(n):
            deg = degs[here]
            if deg == 0:
                raise ValueError(f"state {structure.space.state_of(here)} has no neighbors to propose")
            k = indptr[here] + rng.integers(0, deg)
            there = int(dst[k])
            ratio = math.exp(lm[there] - lm[here]) if lm is not None else ratios[k]
            if rng.random() < ratio * deg / degs[there]:
                here, accepted = there, accepted + 1
            trace.append(here)
        return trace, here, accepted

    return walk


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
    docstring). A call costs one ``log_mass_unnorm`` pass over the space
    for a density model, else one ``score_vector`` read. Path proposals
    draw ``rng.random((n, 4))`` per block of n <= ``BLOCK`` steps, then
    walk: O(1) per step for a density model, else time proportional to the
    path's length. Negative ratios (score entries under -1) are clamped to
    zero and counted in ``clamped``; a NaN ratio anywhere raises
    :class:`NaNRatioError` before the first step. Only a non-finite log
    mass can give one, so only then are a density model's edges read.

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

    lines = structure.lines()
    lm = ratios = step_ratios = None
    clamped = 0
    if hasattr(score_model, "log_mass_unnorm"):
        lm = score_model.log_mass_unnorm(space.all_states())
        if not np.isfinite(lm).all():  # a finite log mass gives no NaN difference
            indptr, dst, _, _ = structure.undirected_view()
            src = csr_rows(indptr)[0]
            with np.errstate(invalid="ignore"):
                check_nan(space, lm[dst] - lm[src], src, dst, "density ratio")
        lm = memoryview(lm)  # O(1) float reads, with no whole-space tolist
    else:
        ratios = _edge_ratio_table(score_model, structure)
        clamped = int((ratios < 0).sum())
        ratios = np.maximum(ratios, 0.0)
        if lines is not None:
            step_ratios = _unit_step_ratios(structure, ratios)
    walk = (_neighbor_walk(structure, rng, lm, ratios) if lines is None
            else _path_walk(lines, rng, lm, step_ratios))

    here, accepted, kept = space.index_of(init), 0, []
    for start in range(0, steps, BLOCK):
        trace, here, block_accepted = walk(here, min(BLOCK, steps - start))
        accepted += block_accepted
        first = burn_in + thin - 1 - start  # trace index of step burn_in + thin
        kept.extend(trace[max(first, first % thin)::thin])
    chain = ChainState(space.state_of(here), steps, accepted, steps, clamped)
    return space.states_of(np.asarray(kept, dtype=np.int64)), chain


def run_annealed(
    score_models: Sequence,
    structure: NeighborhoodStructure,
    init: Sequence[int],
    steps_per_level: int,
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
    rng = np.random.default_rng(seed)
    current = structure.space.validate_state(init)
    samples = chain = None
    for model in score_models:
        samples, chain = run_chain(model, structure, current, steps_per_level,
                                   burn_in=burn_in, thin=thin, rng=rng)
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
