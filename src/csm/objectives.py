"""Training objectives for score and density models.

Exact, fully enumerated losses (the l2 score-matching loss and its
tractable two-term expansion), their unbiased single-neighbor Monte
Carlo estimators, the full-neighborhood Monte Carlo loss (the expansion
on the batch histogram, drawing no randomness), reparameterized
estimators for chain/cycle/grid structures that need no reverse index,
the denoising variant built on a per-dimension categorical noise
kernel, the corrected and original ratio-matching and marginalization
baselines, and plain negative log-likelihood.

Every Concrete-score-matching objective other than the l2 loss is an
edge selection plus one kernel. The selection is numpy only: the edges
(src, pos) and per-edge weights alpha on J1 and beta on J2. The kernel,
:func:`_weighted_j`, evaluates sum alpha (c^2 + 2c) - 2 beta c with one
score-entry call; the J2 estimators return its negation, +J2. It and the
squared-error losses compute their value and dL/dc in numpy and seed the
backward pass at the score entries c, so the tape ends there. Those
objectives report ``edges`` (selected edges), ``j1`` and ``j2`` in
``meta``, with ``batch`` and the counts of batch states with nothing to
select, which contribute zero: ``j1_skipped_empty`` (no out-edges),
``j2_skipped_empty`` (no in-edges) and, for the structured J2, ``j2_edges``.

Every public objective returns an :class:`ObjectiveValue` carrying the
scalar, the parameter gradients from the tape, and bookkeeping counts.
Estimators report batch means so learning rates transfer across batch
sizes. :data:`OBJECTIVES` lists the CLI's objective names with the
context each needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exact import TabularDistribution
from .graphs import DiscreteSpace, NeighborhoodStructure, ReverseIndex

# dcsm_loss_exact enumerates (clean, noisy) pairs; quadratic blowup guard
EXACT_PAIR_CAP = 4096
COND_FLOOR = 1e-6


@dataclass
class ObjectiveValue:
    value: float
    grads: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NoiseKernel:
    """Per-dimension categorical corruption: stay with probability w,
    otherwise move uniformly to any other category of that dimension."""

    space: DiscreteSpace
    w: float

    def __post_init__(self):
        if not (0.0 < self.w < 1.0):
            raise ValueError(f"stay probability must lie in (0, 1), got {self.w}")

    def spread(self, d: int) -> float:
        return (1.0 - self.w) / (self.space.dims[d] - 1)

    def row(self, d: int) -> np.ndarray:
        """Transition matrix of dimension d, rows summing to one."""
        n = self.space.dims[d]
        m = np.full((n, n), self.spread(d))
        np.fill_diagonal(m, self.w)
        return m

    def sample(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        states = np.asarray(states, dtype=np.int64)
        out = states.copy()
        for d, n in enumerate(self.space.dims):
            move = rng.random(states.shape[0]) >= self.w
            k = rng.integers(0, n - 1, size=states.shape[0])
            moved = k + (k >= states[:, d])  # skip the current category
            out[move, d] = moved[move]
        return out

    def log_prob(self, clean: np.ndarray, noisy: np.ndarray) -> np.ndarray:
        clean = np.asarray(clean, dtype=np.int64)
        noisy = np.asarray(noisy, dtype=np.int64)
        out = np.zeros(clean.shape[0])
        for d in range(self.space.ndim):
            same = clean[:, d] == noisy[:, d]
            out += np.where(same, np.log(self.w), np.log(self.spread(d)))
        return out

    def score_targets(
        self, clean: np.ndarray, at: np.ndarray, to: np.ndarray
    ) -> np.ndarray:
        """Exact score entries of the conditional q(.|clean) along edges at -> to."""
        return np.exp(self.log_prob(clean, to) - self.log_prob(clean, at)) - 1.0


# ---------------------------------------------------------------------------
# shared plumbing


def _finalize(model, out: Tensor, meta: dict, value=None, seed=None) -> ObjectiveValue:
    """The objective and its parameter gradients. ``out`` is the scalar loss
    on the tape or, given ``seed`` = dL/d(out), the tensor from which the
    loss ``value`` was computed in numpy; the backward pass starts there."""
    params = model.params
    for p in params.values():
        p.grad = None
    out.backward(seed)
    grads = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    return ObjectiveValue(value=float(out.data) if seed is None else value, grads=grads, meta=meta)


def _weighted_j(model, structure, selections, meta: dict, sign: float = 1.0, dst=None) -> ObjectiveValue:
    """``sign`` times J1 - J2 = sum alpha (c^2 + 2c) - 2 beta c over the
    concatenated edge selections (src, pos, alpha, beta), where alpha and beta
    weigh each edge's J1 and J2 terms and ``dst`` optionally holds the edges'
    flat destinations: one score-entry evaluation, with the backward pass
    seeded at c by dL/dc = 2 alpha c + 2 (alpha - beta)."""
    src, pos, alpha, beta = map(np.concatenate, zip(*selections))
    c = model.score_entries_t(structure, src, pos, dst)
    ca = c.data * alpha
    # loss = sum (c alpha + 2 (alpha - beta)) c, so dL/dc = that factor + c alpha
    factor = ca + 2.0 * (alpha - beta)
    loss, j2, seed = float((factor * c.data).sum()), 2.0 * float((beta * c.data).sum()), factor + ca
    meta = {**meta, "edges": len(src), "j1": loss + j2, "j2": j2}
    return _finalize(model, c, meta, sign * loss, seed if sign == 1.0 else sign * seed)


def _squared_error(model, structure, src, pos, target, weight, meta: dict) -> ObjectiveValue:
    """sum weight (c - target)^2 over the score entries c = c(src)[pos], with
    target and weight of shape (m,) or (k, m), seeded at c by its gradient."""
    c = model.score_entries_t(structure, src, pos)
    diff = c.data - target
    weighted = diff * weight
    return _finalize(model, c, meta, float((diff * weighted).sum()),
                     2.0 * (weighted if weighted.ndim == 1 else weighted.sum(axis=0)))


# ---------------------------------------------------------------------------
# exact enumerated objectives


def csm_loss_exact(model, p: TabularDistribution, structure: NeighborhoodStructure) -> ObjectiveValue:
    """Expected squared distance to the exact score, fully enumerated.

    Zero exactly when the model matches the score of ``p`` everywhere on
    its support. States with zero mass carry zero weight and are skipped
    (their score target is undefined).
    """
    src, pos, dst = structure.edges()
    keep = p.mass[src] > 0
    src, pos, dst = src[keep], pos[keep], dst[keep]
    meta = {"edges": int(src.size), "states": int(structure.space.total_states)}
    return _squared_error(model, structure, src, pos, p.mass[dst] / p.mass[src] - 1.0, p.mass[src], meta)


def jcsm_exact(model, p: TabularDistribution, structure: NeighborhoodStructure) -> ObjectiveValue:
    """Tractable expansion J1 - J2 of the exact loss, fully enumerated.

    Differs from :func:`csm_loss_exact` by a model-independent constant,
    so gradients and minimizers coincide.
    """
    src, pos, dst = structure.edges()
    return _weighted_j(model, structure, [(src, pos, p.mass[src], p.mass[dst])], {})


# ---------------------------------------------------------------------------
# Monte Carlo estimators


def _slots(counts: np.ndarray, rng):
    """(row, slot, weight): one slot per nonempty row, drawn uniformly and
    upweighted by the row's count, unbiased for the per-row sum over slots."""
    rows = np.flatnonzero(counts > 0)
    return rows, rng.integers(0, counts[rows]), counts[rows].astype(np.float64)


def _j1_edges(batch: np.ndarray, structure, rng):
    """One uniformly drawn out-edge per batch state, weighted by its degree."""
    degs = structure.degrees_of(batch)
    rows, pos, weight = _slots(degs, rng)
    alpha = weight / batch.shape[0]
    return (batch[rows], pos, alpha, np.zeros(rows.size)), {"j1_skipped_empty": int((degs == 0).sum())}


def _j2_edges(batch: np.ndarray, structure, rev: ReverseIndex, rng):
    """One uniformly drawn reverse-index entry per batch state, weighted by
    the reverse set's size."""
    flat = structure.space.indices_of(batch)
    counts = rev.indptr[flat + 1] - rev.indptr[flat]
    rows, k, weight = _slots(counts, rng)
    sel = rev.indptr[flat[rows]] + k
    beta = weight / batch.shape[0]
    return (rev.src[sel], rev.pos[sel], np.zeros(rows.size), beta), {"j2_skipped_empty": int((counts == 0).sum())}


def _j2_structured_edges(batch: np.ndarray, structure, rng):
    """The in-edges of each batch state along one line, weighted by the number
    of lines: the flat order on chains and cycles, a uniformly drawn dimension
    on grids."""
    b, grid = batch.shape[0], structure.kind == "grid"
    lines = structure.space.ndim if grid else 1
    row, src, pos = structure.in_edges_along(batch, rng.integers(0, lines, size=b) if grid else None)
    meta = {"j2_edges": int(row.size), "j2_skipped_empty": b - int(np.unique(row).size)}
    return (src, pos, np.zeros(row.size), np.full(row.size, lines / b)), meta


def estimate_j1(model, minibatch: np.ndarray, structure, rng) -> ObjectiveValue:
    """Unbiased single-neighbor estimator of the J1 term.

    Per state: draw one neighbor slot uniformly and upweight the entry's
    c^2 + 2c by the neighborhood size. Empty neighborhoods contribute 0.
    """
    batch = np.asarray(minibatch, dtype=np.int64)
    edges, meta = _j1_edges(batch, structure, rng)
    return _weighted_j(model, structure, [edges], {"batch": batch.shape[0], **meta})


def estimate_j2(model, minibatch: np.ndarray, structure, reverse_index: ReverseIndex, rng) -> ObjectiveValue:
    """Unbiased reverse-neighborhood estimator of the J2 term.

    Per state x': draw (x, i) uniformly from the reverse set and
    upweight 2 c(x)_i by its size. Empty reverse sets contribute 0.
    """
    batch = np.asarray(minibatch, dtype=np.int64)
    edges, meta = _j2_edges(batch, structure, reverse_index, rng)
    return _weighted_j(model, structure, [edges], {"batch": batch.shape[0], **meta}, sign=-1.0)


def estimate_j2_structured(model, minibatch: np.ndarray, structure, rng) -> ObjectiveValue:
    """Reverse-index-free J2 estimator for chain, cycle and grid kinds.

    Chains and cycles reparameterize J2 as the score at the flat-order
    predecessor of each sample; grids draw a dimension uniformly, apply
    the per-dimension reparameterization in both orientations, and scale
    by the number of dimensions.
    """
    batch = np.asarray(minibatch, dtype=np.int64)
    edges, meta = _j2_structured_edges(batch, structure, rng)
    return _weighted_j(model, structure, [edges], {"batch": batch.shape[0], **meta}, sign=-1.0)


def _row_entries(indptr: np.ndarray, rows: np.ndarray):
    """(row, entry, counts): each CSR entry of ``rows`` as its index into the
    data arrays with the row that owns it, and each row's entry count."""
    counts = indptr[rows + 1] - indptr[rows]
    # the rows' entries, laid end to end, shifted to where each row starts
    shift = np.repeat(indptr[rows] - (np.cumsum(counts) - counts), counts)
    return np.repeat(rows, counts), np.arange(shift.size) + shift, counts


def csm_mc_loss(model, minibatch, structure, reverse_index, rng) -> ObjectiveValue:
    """Monte Carlo J1 - J2 over the minibatch, summed over whole neighborhoods.

    Each batch state contributes c^2 + 2c over every out-edge and 2c over
    every reverse-index entry: the expectation of :func:`estimate_j1` and
    :func:`estimate_j2` over their neighbor draw, unbiased for J1 - J2 with
    lower variance. That is :func:`jcsm_exact` at the batch histogram w /
    batch size, evaluated once per edge that touches w: the reverse-index
    entries of states with w > 0, and the out-edges of those states whose
    destination has w = 0. A call costs O(distinct states x degree) plus
    one bincount. ``rng`` is accepted for the interface and not consumed.
    """
    batch = np.asarray(minibatch, dtype=np.int64)
    b, rev = batch.shape[0], reverse_index
    indptr, indices = structure.adjacency()
    w = np.bincount(structure.space.indices_of(batch), minlength=structure.space.total_states)
    live, mass = np.flatnonzero(w > 0), w / b
    dst, sel, n_in = _row_entries(rev.indptr, live)
    src, out, n_out = _row_entries(indptr, live)
    # out-edges into a batch state are reverse-index entries already
    keep = np.flatnonzero(w[indices[out]] == 0)
    src, out, r_src = src[keep], out[keep], rev.src[sel]
    in_edges = (r_src, rev.pos[sel], mass[r_src], mass[dst])
    out_edges = (src, out - indptr[src], mass[src], np.zeros(src.size))
    meta = {"batch": b, "j1_skipped_empty": int(w[live[n_out == 0]].sum()),
            "j2_skipped_empty": int(w[live[n_in == 0]].sum())}
    return _weighted_j(model, structure, [in_edges, out_edges], meta, dst=np.concatenate([dst, indices[out]]))


def csm_structured_loss(model, minibatch, structure, rng) -> ObjectiveValue:
    """J1 - J2 with the structured (reverse-index-free) J2 estimator: the
    :func:`estimate_j1` and :func:`estimate_j2_structured` edges in one
    score-entry evaluation."""
    batch = np.asarray(minibatch, dtype=np.int64)
    j1, m1 = _j1_edges(batch, structure, rng)
    j2, m2 = _j2_structured_edges(batch, structure, rng)
    return _weighted_j(model, structure, [j1, j2], {"batch": batch.shape[0], **m1, **m2})


# ---------------------------------------------------------------------------
# denoising objective


def dcsm_loss(model, minibatch, kernel: NoiseKernel, structure, rng) -> ObjectiveValue:
    """Denoising score matching against the noise-kernel conditional.

    Each clean state is corrupted once; the model's score at the noisy
    state is matched to the exact (closed-form) score of the kernel
    conditional, whose minimizer over all states is the score of the
    perturbed data distribution.
    """
    batch = np.asarray(minibatch, dtype=np.int64)
    if tuple(kernel.space.dims) != tuple(structure.space.dims):
        raise ValueError("kernel and structure disagree on the space")
    noisy = kernel.sample(batch, rng)
    rows, pos, dst = structure.all_neighbors_of(noisy)
    target = kernel.score_targets(batch[rows], noisy[rows], dst)
    meta = {"batch": batch.shape[0], "neighbor_evals": int(rows.size)}
    return _squared_error(model, structure, noisy[rows], pos, target, 1.0 / batch.shape[0], meta)


def dcsm_loss_exact(model, p: TabularDistribution, kernel: NoiseKernel, structure) -> ObjectiveValue:
    """Fully enumerated expectation of the denoising objective.

    Sums over every (clean, noisy) pair weighted by p(clean) q(noisy|clean);
    only usable on small spaces, but free of Monte Carlo noise, which the
    fixed-point checks need.
    """
    space = structure.space
    n = space.require_enumerable("exact denoising objective")
    if n > EXACT_PAIR_CAP:
        raise ValueError(f"exact denoising loss caps at {EXACT_PAIR_CAP} states, got {n}")
    states = space.all_states()
    # pairwise kernel matrix Q[i, j] = q(state j | state i)
    q = np.ones((n, n))
    for d in range(space.ndim):
        q *= kernel.row(d)[np.ix_(states[:, d], states[:, d])]
    src, pos, dst = structure.edges()
    # row i: the target entries of q(.|clean state i) and their weight p(i) q(src | i)
    return _squared_error(model, structure, src, pos, q[:, dst] / q[:, src] - 1.0,
                          p.mass[:, None] * q[:, src], {"pairs": int(n * src.size)})


# ---------------------------------------------------------------------------
# conditional baselines and likelihood


def _conditional_terms(model, batch: np.ndarray, d: int):
    clp = model.conditional_log_probs_t(batch, d)
    q = ad.texp(clp)
    q_obs = ad.take_pairs(q, np.arange(batch.shape[0]), batch[:, d])
    return q, q_obs


def ratio_matching_loss(model, minibatch: np.ndarray, variant: str = "fixed") -> ObjectiveValue:
    """Squared-conditional ratio matching over every dimension.

    ``fixed`` is the corrected objective (1 - q(x_d|rest))^2 plus the sum
    of squared off-value conditionals; ``original`` is the degenerate
    published form whose minimizer is the uniform conditional regardless
    of the data, kept only as a baseline.
    """
    if variant not in ("fixed", "original"):
        raise ValueError(f"unknown variant {variant!r}")
    batch = np.asarray(minibatch, dtype=np.int64)
    b = batch.shape[0]
    total: Tensor | None = None
    for d in range(model.space.ndim):
        q, q_obs = _conditional_terms(model, batch, d)
        if variant == "fixed":
            term = ad.add(
                ad.square(ad.sub(1.0, q_obs)),
                ad.sub(ad.tsum(ad.square(q), axis=1), ad.square(q_obs)),
            )
        else:
            term = ad.tsum(ad.square(ad.sub(1.0, q)), axis=1)
        total = term if total is None else ad.add(total, term)
    loss = ad.mul(ad.tsum(total), 1.0 / b)
    return _finalize(model, loss, {"batch": b, "dims": model.space.ndim, "variant": variant})


def marginalization_loss(
    model, minibatch: np.ndarray, variant: str = "fixed", floor: float = COND_FLOOR
) -> ObjectiveValue:
    """Inverse-conditional marginalization objective.

    The 1/q^2 terms explode as conditionals approach zero, so they are
    clamped at ``floor`` (clamp events are counted in meta). ``original``
    keeps the degenerate published form.
    """
    if variant not in ("fixed", "original"):
        raise ValueError(f"unknown variant {variant!r}")
    batch = np.asarray(minibatch, dtype=np.int64)
    b = batch.shape[0]
    total: Tensor | None = None
    clamped = 0
    for d in range(model.space.ndim):
        q, _ = _conditional_terms(model, batch, d)
        clamped += int((q.data <= floor).sum())
        qc = ad.clip_min(q, floor)
        qc_obs = ad.take_pairs(qc, np.arange(b), batch[:, d])
        if variant == "fixed":
            term = ad.sub(
                ad.pow_const(qc_obs, -2.0),
                ad.tsum(ad.mul(ad.pow_const(qc, -1.0), 2.0), axis=1),
            )
        else:
            term = ad.tsum(
                ad.sub(ad.pow_const(qc, -2.0), ad.mul(ad.pow_const(qc, -1.0), 2.0)), axis=1
            )
        total = term if total is None else ad.add(total, term)
    loss = ad.mul(ad.tsum(total), 1.0 / b)
    meta = {"batch": b, "variant": variant, "clamped_conditionals": clamped}
    return _finalize(model, loss, meta)


def nll_loss(model, minibatch: np.ndarray) -> ObjectiveValue:
    """Mean negative log-likelihood under an exactly normalized model."""
    batch = np.asarray(minibatch, dtype=np.int64)
    loss = ad.mul(ad.tsum(model.log_mass_t(batch)), -1.0 / batch.shape[0])
    return _finalize(model, loss, {"batch": batch.shape[0]})


# ---------------------------------------------------------------------------
# name-based dispatch (the CLI's objective strings)

# name -> (the context the objective needs, f(context, model, batch, rng))
OBJECTIVES = {
    "csm_exact": (("structure", "empirical"),
                  lambda c, model, batch, rng: csm_loss_exact(model, c["empirical"], c["structure"])),
    "csm_mc": (("structure", "reverse_index"),
               lambda c, model, batch, rng: csm_mc_loss(model, batch, c["structure"], c["reverse_index"], rng)),
    "csm_structured": (("structure",),
                       lambda c, model, batch, rng: csm_structured_loss(model, batch, c["structure"], rng)),
    "dcsm": (("structure", "kernel"),
             lambda c, model, batch, rng: dcsm_loss(model, batch, c["kernel"], c["structure"], rng)),
    "ratio_fixed": ((), lambda c, model, batch, rng: ratio_matching_loss(model, batch, "fixed")),
    "ratio_original": ((), lambda c, model, batch, rng: ratio_matching_loss(model, batch, "original")),
    "marginal_fixed": ((), lambda c, model, batch, rng: marginalization_loss(model, batch, "fixed")),
    "marginal_original": ((), lambda c, model, batch, rng: marginalization_loss(model, batch, "original")),
    "nll": ((), lambda c, model, batch, rng: nll_loss(model, batch)),
}
OBJECTIVE_NAMES = tuple(OBJECTIVES)


def make_objective(
    name: str,
    structure: NeighborhoodStructure | None = None,
    empirical: TabularDistribution | None = None,
    kernel: NoiseKernel | None = None,
    reverse_index: ReverseIndex | None = None,
):
    """Bind an objective name to its context; returns f(model, batch, rng)."""
    if name not in OBJECTIVES:
        raise ValueError(f"unknown objective {name!r}; expected one of {OBJECTIVE_NAMES}")
    needs, bind = OBJECTIVES[name]
    context = {"structure": structure, "empirical": empirical, "kernel": kernel,
               "reverse_index": reverse_index}
    missing = [key for key in needs if context[key] is None]
    if missing:
        raise ValueError(f"objective {name!r} needs {' and '.join(missing)}")
    return lambda model, batch, rng: bind(context, model, batch, rng)
