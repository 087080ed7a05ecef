"""Exact tabular distributions, density reconstruction and divergences.

Everything here enumerates: probabilities are dense arrays over the flat
state order of a :class:`~csm.graphs.DiscreteSpace`. The score of a
distribution at a state is the vector of relative neighbor differences
(p(x_n) - p(x)) / p(x); on a weakly connected structure that score
determines the distribution, and :func:`reconstruct_density` inverts it
from block reads of the score: states (m, D) to their score vectors
concatenated row after row. The exact score of a table is that of the
logit table with logits log p, :meth:`csm.models.LogitTableModel.from_distribution`.
"""

from __future__ import annotations

import logging
from typing import Callable, Iterable, Sequence

import numpy as np

from .graphs import DiscreteSpace, NeighborhoodStructure, csr_rows

log = logging.getLogger(__name__)

MASS_TOL = 1e-12
# score entries this close to -1 are clamped before the log is taken
SCORE_CLAMP = 1e-9
# most rows one model read puts on the tape: score entries per score_fn call
# here, states per DensityModel.log_mass_unnorm pass. A pass holds its
# activations until it returns: one over the 2,048 tree owners (24,576 entries)
# of a 12-bit masked-AR grid took peak RSS from 70 to 243 MiB, and blocks of
# 2,048 entries cut MH steps/s by a third, which blocks of 1,024 did not.
SCORE_BLOCK = 1024


class TabularDistribution:
    """Dense probability mass function over an enumerable discrete space.

    ``mass[i]`` is the probability of the state with flat index i. Masses
    must be nonnegative and sum to 1 within 1e-12 (pass ``normalize=True``
    to rescale). ``strictly_positive`` guards the log-mass oracle.
    """

    def __init__(self, space: DiscreteSpace, mass: np.ndarray, normalize: bool = False):
        n = space.require_enumerable("tabular distribution")
        mass = np.asarray(mass, dtype=np.float64)
        if mass.shape != (n,):
            raise ValueError(f"mass must have shape ({n},), got {mass.shape}")
        if np.any(mass < 0) or not np.all(np.isfinite(mass)):
            raise ValueError("masses must be finite and nonnegative")
        total = mass.sum()
        if normalize:
            if total <= 0:
                raise ValueError("cannot normalize a zero mass vector")
            mass = mass / total
        elif abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {total!r}, not 1")
        self.space = space
        self.mass = mass
        self.mass.flags.writeable = False

    @property
    def strictly_positive(self) -> bool:
        return bool(self.mass.min() > 0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(self.space.total_states, size=n, p=self.mass)
        return self.space.states_of(idx)

    @classmethod
    def uniform(cls, space: DiscreteSpace) -> "TabularDistribution":
        n = space.require_enumerable("uniform distribution")
        return cls(space, np.full(n, 1.0 / n))

    @classmethod
    def from_samples(cls, space: DiscreteSpace, samples: np.ndarray) -> "TabularDistribution":
        """Empirical histogram of a sample array (m, D)."""
        n = space.require_enumerable("empirical distribution")
        idx = space.indices_of(np.asarray(samples, dtype=np.int64))
        counts = np.bincount(idx, minlength=n).astype(np.float64)
        return cls(space, counts, normalize=True)

    @classmethod
    def random_positive(
        cls, space: DiscreteSpace, rng: np.random.Generator, floor: float = 0.05
    ) -> "TabularDistribution":
        """Random strictly positive distribution (for round-trip tests)."""
        n = space.require_enumerable("random distribution")
        return cls(space, rng.random(n) + floor, normalize=True)

    def to_csv(self, path) -> None:
        """One line per state: ``state_indices..., mass``."""
        from .io import atomic_write

        lines = []
        for i, m in enumerate(self.mass):
            coords = ",".join(str(v) for v in self.space.state_of(i))
            lines.append(f"{coords},{float(m)!r}")
        atomic_write(path, "\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path, space: DiscreteSpace) -> "TabularDistribution":
        n = space.require_enumerable("tabular distribution")
        mass = np.zeros(n)
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != space.ndim + 1:
                    raise ValueError(f"{path}:{lineno}: expected {space.ndim} coords and a mass")
                state = space.validate_state([int(v) for v in parts[:-1]])
                mass[space.index_of(state)] = float(parts[-1])
        return cls(space, mass)


def _support_mask(
    structure: NeighborhoodStructure, support: Iterable[Sequence[int]] | None
) -> np.ndarray:
    """Membership of every flat state in ``support`` (all states when it is None)."""
    space = structure.space
    n = space.require_enumerable("density reconstruction")
    if support is None:
        return np.ones(n, dtype=bool)
    member = np.zeros(n, dtype=bool)
    member[[space.index_of(space.validate_state(s)) for s in support]] = True
    if not member.any():
        raise ValueError("empty support")
    return member


def _read_scores(score_fn, structure: NeighborhoodStructure, states: np.ndarray):
    """(row starts, concatenated score vectors) of the flat ``states``, read in
    consecutive blocks of at most ``SCORE_BLOCK`` entries (one state when its
    degree exceeds that); each block must get one entry per neighbor."""
    indptr, _ = structure.adjacency()
    degs = indptr[states + 1] - indptr[states]
    per_block = max(SCORE_BLOCK // max(int(degs.max(initial=0)), 1), 1)
    out = [np.empty(0)]
    for start in range(0, states.size, per_block):
        block = states[start : start + per_block]
        want = int(degs[start : start + per_block].sum())
        c = np.asarray(score_fn(structure.space.states_of(block)), dtype=np.float64)
        if c.shape != (want,):
            raise ValueError(
                f"score_fn returned shape {c.shape} for the {block.size} states from "
                f"{structure.space.state_of(int(block[0]))} on, which have {want} neighbors"
            )
        out.append(c)
    return np.cumsum(degs) - degs, np.concatenate(out)


def reconstruct_density(
    score_fn: Callable[[np.ndarray], np.ndarray],
    structure: NeighborhoodStructure,
    support: Iterable[Sequence[int]] | None = None,
    root: Sequence[int] | None = None,
) -> TabularDistribution:
    """Rebuild the distribution a score function encodes.

    Builds a BFS spanning tree of the structure's undirected view,
    restricted to the support, level by level from its CSR arrays; reads
    the scores of the tree edges' owners in blocks (see ``SCORE_BLOCK``);
    sums log(score entry + 1) along each tree edge (negated when the edge
    is traversed against its direction), then normalizes by log-sum-exp.
    ``score_fn`` maps states (m, D) to their score vectors concatenated row
    after row, as ``ScoreModel.score_vector`` does. Off-tree edges are
    ignored; see :func:`max_cycle_residual` for the consistency
    diagnostic. Entries at or below -1 are clamped to -1 + 1e-9 and
    counted in a warning.
    """
    space = structure.space
    member = _support_mask(structure, support)
    root_idx = int(np.argmax(member)) if root is None else space.index_of(space.validate_state(root))
    if not member[root_idx]:
        raise ValueError("root must belong to the support")

    indptr, dst, pos, fwd = structure.undirected_view()
    seen = ~member
    seen[root_idx] = True
    levels, frontier = [], np.array([root_idx])
    while frontier.size:
        # a state's tree edge is the first entry that reaches it, scanning the
        # frontier in discovery order and each state's entries in CSR order
        parent, offset = csr_rows(indptr, frontier)
        k = indptr[parent] + offset
        new = np.flatnonzero(~seen[dst[k]])
        new = new[np.sort(np.unique(dst[k[new]], return_index=True)[1])]
        levels.append((parent[new], k[new]))
        frontier = dst[k[new]]
        seen[frontier] = True
    if not seen.all():
        n_members = int(member.sum())
        raise ValueError(
            f"structure is disconnected on the support: reached "
            f"{n_members - int((~seen).sum())} of {n_members} states"
        )

    parent, k = (np.concatenate(part) for part in zip(*levels))
    # a forward entry reads its parent's score, a reverse entry its child's
    owners, which = np.unique(np.where(fwd[k], parent, dst[k]), return_inverse=True)
    start, scores = _read_scores(score_fn, structure, owners)
    c = scores[start[which] + pos[k]]
    clamped = int((c <= -1.0 + SCORE_CLAMP).sum())
    if clamped:
        log.warning("reconstruct_density clamped %d score entries at -1", clamped)
    step = np.log1p(np.maximum(c, -1.0 + SCORE_CLAMP)) * np.where(fwd[k], 1.0, -1.0)

    lm = np.full(space.total_states, -np.inf)
    lm[root_idx] = 0.0
    done = 0
    for u, level in levels:
        lm[dst[level]] = lm[u] + step[done : done + level.size]
        done += level.size
    mass = np.exp(lm - lm.max())
    return TabularDistribution(space, mass / mass.sum())


def max_cycle_residual(
    score_fn: Callable[[np.ndarray], np.ndarray],
    structure: NeighborhoodStructure,
    support: Iterable[Sequence[int]] | None = None,
) -> float:
    """Worst absolute log-ratio disagreement over off-tree edges.

    Zero (to rounding) iff the scores are consistent with some
    distribution on the support; large values flag a score field that is
    not the score of any distribution. ``score_fn`` takes blocks of states,
    as in :func:`reconstruct_density`.
    """
    support = None if support is None else list(support)  # read twice below
    recon = reconstruct_density(score_fn, structure, support=support)
    member = _support_mask(structure, support)
    with np.errstate(divide="ignore"):
        lm = np.log(recon.mass)
    # edges leaving the support's states, grouped by ascending source as the scores are
    src, _, dst = structure.edges()
    src, dst = src[member[src]], dst[member[src]]
    _, c = _read_scores(score_fn, structure, np.flatnonzero(member))
    inside = member[dst]
    src, dst, c = src[inside], dst[inside], c[inside]
    resid = np.abs((lm[dst] - lm[src]) - np.log1p(np.maximum(c, -1.0 + SCORE_CLAMP)))
    return float(resid.max(initial=0.0))


def scaled_score_limit(
    density_fn: Callable[[np.ndarray], float], x: np.ndarray, delta: float
) -> np.ndarray:
    """Forward-difference surrogate for the log-density gradient.

    Entry d is (p(x + delta e_d) - p(x)) / (delta p(x)); as delta shrinks
    this converges to the gradient of log p at O(delta) rate. Test oracle
    for the continuous limit, not a production operation.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    x = np.asarray(x, dtype=np.float64)
    px = float(density_fn(x))
    if px <= 0:
        raise ValueError("density must be positive at x")
    out = np.empty(x.size)
    for d in range(x.size):
        shifted = x.copy()
        shifted[d] += delta
        pd = float(density_fn(shifted))
        if pd <= 0:
            raise ValueError("density must be positive at x + delta e_d")
        out[d] = (pd - px) / (delta * px)
    return out


def kl_and_tv(p: TabularDistribution, q: TabularDistribution) -> tuple[float, float]:
    """(KL(p || q), total variation distance)."""
    if p.space.dims != q.space.dims:
        raise ValueError("distributions live on different spaces")
    tv = 0.5 * float(np.abs(p.mass - q.mass).sum())
    mask = p.mass > 0
    if np.any(q.mass[mask] <= 0):
        kl = float("inf")
    else:
        kl = float(np.sum(p.mass[mask] * (np.log(p.mass[mask]) - np.log(q.mass[mask]))))
    return kl, tv
