"""Neighborhood structures over finite discrete spaces.

A state is a tuple of integers, one per dimension. A neighborhood
structure maps each state to an ordered, duplicate-free list of neighbor
states; drawing a directed edge to each neighbor induces a graph on the
space. Scores, objectives and samplers all consume that graph through
this module.

Supported kinds:

- ``chain``   : flat-order successor, last state has no neighbor
- ``cycle``   : flat-order successor with wrap-around
- ``star``    : state 0 is the hub; N(hub) = [], N(x) = [hub] otherwise
- ``grid``    : per-dimension +1/-1 moves, ordered by (dimension, + then -);
                binary dimensions contribute a single bit-flip move
- ``complete``: every other state, ascending flat order
- ``explicit``: user-supplied adjacency

On an enumerable space the graph is its CSR adjacency over flat indices
(:meth:`NeighborhoodStructure.adjacency`), built per kind by array
arithmetic. Neighbors, degrees, the edge list, the undirected view, the
reverse index and the connectivity check all derive from those arrays.
A grid beyond the enumeration cap has no CSR arrays; its neighbors come
from the same per-dimension arithmetic that builds a grid's adjacency, and
so do the in-edges along one dimension that the reverse-index-free
estimators read (:meth:`NeighborhoodStructure.in_edges_along`).

Structures are immutable after construction; internal adjacency caches
are built lazily and are safe to share across read-only workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

State = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 10**6
# CSR adjacency materialization refuses beyond this many edges.
EDGE_CAP = 2 * 10**7

KINDS = ("chain", "cycle", "star", "grid", "complete", "explicit")
BOUNDARIES = ("drop", "wrap")


class EnumerationCapExceeded(ValueError):
    """Raised when an operation would enumerate more states than allowed."""


@dataclass(frozen=True)
class DiscreteSpace:
    """Product space of per-dimension category counts.

    ``dims[d]`` is the number of categories along dimension d; a valid
    state has ``0 <= state[d] < dims[d]``. ``total_states`` is the exact
    product and may exceed the enumeration cap; operations that need the
    full state list must call :meth:`require_enumerable` first.
    """

    dims: tuple[int, ...]
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("space needs at least one dimension")
        if any(d < 2 for d in dims):
            raise ValueError(f"every dimension must have >= 2 categories, got {dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_state_table", None)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def total_states(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    @property
    def enumerable(self) -> bool:
        return self.total_states <= self.enumeration_cap

    def require_enumerable(self, what: str = "operation") -> int:
        if not self.enumerable:
            raise EnumerationCapExceeded(
                f"{what} requires enumerating {self.total_states} states "
                f"(cap {self.enumeration_cap})"
            )
        return self.total_states

    def contains(self, state: Sequence[int]) -> bool:
        return len(state) == self.ndim and all(
            0 <= int(s) < d for s, d in zip(state, self.dims)
        )

    def validate_state(self, state: Sequence[int]) -> State:
        if not self.contains(state):
            raise ValueError(f"state {tuple(state)} invalid for dims {self.dims}")
        return tuple(int(s) for s in state)

    def index_of(self, state: Sequence[int]) -> int:
        """Flat index of a state (row-major / C order)."""
        idx = 0
        for s, d in zip(state, self.dims):
            idx = idx * d + int(s)
        return idx

    def state_of(self, index: int) -> State:
        out = []
        for d in reversed(self.dims):
            out.append(index % d)
            index //= d
        return tuple(reversed(out))

    def indices_of(self, states: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`index_of` for an (m, D) int array."""
        states = np.asarray(states, dtype=np.int64)
        # Horner's rule beats the int64 matmul up to D = 2 (2.7x at 8,192 rows);
        # the matmul wins from D = 3 at 512 rows and from D = 6 at 8,192
        if self.ndim > 2:
            return states @ self._strides()
        flat = states[..., 0].copy()
        for d in range(1, self.ndim):
            flat *= self.dims[d]
            flat += states[..., d]
        return flat

    def states_of(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`state_of`; returns an (m, D) int array."""
        idx = np.asarray(indices, dtype=np.int64)
        if self.enumerable:
            return self.all_states()[idx]
        return np.stack(np.unravel_index(idx.ravel(), self.dims), axis=1)

    def as_states(self, x: np.ndarray) -> np.ndarray:
        """States (m, D) as given, or the states of flat indices (m,)."""
        x = np.asarray(x, dtype=np.int64)
        return self.states_of(x) if x.ndim == 1 else x

    def all_states(self) -> np.ndarray:
        """Every state as an (n, D) array in flat-index order (cached)."""
        if self._state_table is None:
            n = self.require_enumerable("all_states")
            table = np.stack(np.unravel_index(np.arange(n), self.dims), axis=1)
            table.flags.writeable = False
            object.__setattr__(self, "_state_table", table)
        return self._state_table

    def _strides(self) -> np.ndarray:
        strides = np.ones(self.ndim, dtype=np.int64)
        for d in range(self.ndim - 2, -1, -1):
            strides[d] = strides[d + 1] * self.dims[d + 1]
        return strides


class NeighborhoodStructure:
    """Immutable neighbor map over a :class:`DiscreteSpace`.

    ``boundary`` only affects the grid kind: ``drop`` omits out-of-range
    moves, ``wrap`` makes every dimension toroidal. Binary dimensions
    always contribute a single bit-flip neighbor (both signs coincide
    modulo 2).
    """

    def __init__(
        self,
        kind: str,
        space: DiscreteSpace,
        boundary: str = "drop",
        explicit_edges: Mapping[Sequence[int], Sequence[Sequence[int]]] | None = None,
    ):
        if kind not in KINDS:
            raise ValueError(f"unsupported structure kind {kind!r}; expected one of {KINDS}")
        if boundary not in BOUNDARIES:
            raise ValueError(f"unsupported boundary policy {boundary!r}")
        if kind in ("chain", "cycle", "star", "complete", "explicit"):
            space.require_enumerable(f"{kind} structure")
        self.kind = kind
        self.space = space
        self.boundary = boundary
        self._adj: tuple[np.ndarray, np.ndarray] | None = None
        if kind == "explicit":
            if explicit_edges is None:
                raise ValueError("explicit kind requires an adjacency mapping")
            self._adj = self._validate_explicit(explicit_edges)
        elif explicit_edges is not None:
            raise ValueError("explicit_edges only allowed for the explicit kind")
        self._und: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._connected: bool | None = None

    def _validate_explicit(self, edges) -> tuple[np.ndarray, np.ndarray]:
        """CSR arrays of a user-supplied adjacency mapping; unlisted states have no neighbors."""
        space = self.space
        rows: dict[int, list[int]] = {}
        for src, nbrs in edges.items():
            s = space.validate_state(src)
            i = space.index_of(s)
            flat = [space.index_of(space.validate_state(t)) for t in nbrs]
            if i in flat:
                raise ValueError(f"self-loop at {s}")
            if len(set(flat)) != len(flat):
                raise ValueError(f"duplicate neighbors listed for state {s}")
            rows[i] = flat
        degs = np.zeros(space.total_states, dtype=np.int64)
        degs[list(rows)] = [len(flat) for flat in rows.values()]
        return _indptr(degs), np.array([j for i in sorted(rows) for j in rows[i]], dtype=np.int64)

    # -- degrees and neighbors ------------------------------------------------

    def uniform_degree(self) -> int | None:
        """Common neighbor count when every state has the same degree, else None."""
        if self.kind == "complete":  # its CSR arrays may exceed EDGE_CAP
            return self.space.total_states - 1
        if self.kind == "grid":  # the grid may lie beyond the enumeration cap
            if self.boundary == "wrap" or all(n == 2 for n in self.space.dims):
                return sum(1 if n == 2 else 2 for n in self.space.dims)
            return None
        degs = np.diff(self.adjacency()[0])
        return int(degs[0]) if np.all(degs == degs[0]) else None

    def degrees_of(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=np.int64)
        if self.kind == "grid":
            return self.grid_dim_degrees(states).sum(axis=1)
        indptr, _ = self.adjacency()
        flat = self.space.indices_of(states)
        return indptr[flat + 1] - indptr[flat]

    def grid_dim_degrees(self, states: np.ndarray) -> np.ndarray:
        """Per-dimension neighbor counts, shape (m, D)."""
        dims = np.asarray(self.space.dims, dtype=np.int64)
        m = states.shape[0]
        degs = np.empty((m, len(dims)), dtype=np.int64)
        for d, n in enumerate(dims):
            if n == 2:
                degs[:, d] = 1
            elif self.boundary == "wrap":
                degs[:, d] = 2
            else:
                degs[:, d] = (states[:, d] + 1 < n).astype(np.int64) + (
                    states[:, d] > 0
                ).astype(np.int64)
        return degs

    def neighbor_states_at(self, states: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """The ``positions[j]``-th neighbor of ``states[j]`` for each row j."""
        states = np.asarray(states, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        if self.kind == "grid" and not self.space.enumerable:
            return self._grid_neighbor_at(states, positions)
        return self.space.states_of(self.neighbor_indices_at(self.space.indices_of(states), positions))

    def neighbor_indices_at(self, flat: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Flat index of the ``positions[j]``-th neighbor of flat state ``flat[j]``."""
        indptr, indices = self.adjacency()
        start = indptr[flat]
        if ((positions < 0) | (positions >= indptr[flat + 1] - start)).any():
            raise ValueError("neighbor position out of range")
        return indices[start + positions]

    def _grid_neighbor_at(self, states: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """The grid rule: neighbor ``positions[j]`` of ``states[j]`` by arithmetic."""
        dims = np.asarray(self.space.dims, dtype=np.int64)
        degs = self.grid_dim_degrees(states)
        cum = np.cumsum(degs, axis=1)
        if ((positions < 0) | (positions >= cum[:, -1])).any():
            raise ValueError("neighbor position out of range")
        dim = (positions[:, None] >= cum).sum(axis=1)
        within = positions - np.where(dim > 0, cum[np.arange(len(dim)), dim - 1], 0)
        n_d = dims[dim]
        v = states[np.arange(len(dim)), dim]
        # first slot of a dimension block is +1 when that move exists, the
        # bit-flip for binary dims; second slot is -1
        plus_exists = (n_d > 2) & ((self.boundary == "wrap") | (v + 1 < n_d))
        step = np.where(n_d == 2, 1 - 2 * v, np.where((within == 0) & plus_exists, 1, -1))
        out = states.copy()
        out[np.arange(len(dim)), dim] = (v + step) % n_d
        return out

    def in_edges_along(
        self, states: np.ndarray, dims: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """In-edges of each ``states[j]`` from states that differ from it along ``dims[j]``.

        Returns (row, src_states, pos), one entry per edge, with
        ``N(src_states[k])[pos[k]] = states[row[k]]``. Chains and cycles have
        one line, the flat order, so ``dims`` is ignored and the one entry is
        the flat predecessor (none for the first chain state). A grid has a
        bit-flip source on a binary dimension, else x - e_d (its + move) and
        x + e_d (its - move) where they exist; the entries are grouped in that
        order, found by slot arithmetic without enumerating the space.
        """
        states = np.asarray(states, dtype=np.int64)
        m = states.shape[0]
        if self.kind in ("chain", "cycle"):
            flat = self.space.indices_of(states)
            row = np.flatnonzero(flat > 0) if self.kind == "chain" else np.arange(m)
            src = self.space.states_of((flat[row] - 1) % self.space.total_states)
            return row, src, np.zeros(row.size, dtype=np.int64)
        if self.kind != "grid":
            raise ValueError(f"in-edges along a dimension need a chain, cycle or grid, not {self.kind!r}")
        sizes = np.asarray(self.space.dims, dtype=np.int64)
        dims = np.asarray(dims, dtype=np.int64)
        v, n, wrap = states[np.arange(m), dims], sizes[dims], self.boundary == "wrap"
        # a source differs from x only along dims, so its slot block for that
        # dimension starts where x's does
        first = (self.grid_dim_degrees(states) * (np.arange(sizes.size) < dims[:, None])).sum(axis=1)
        multi = n > 2
        exists = np.stack([~multi, multi & (wrap | (v > 0)), multi & (wrap | (v + 1 < n))])
        value = np.stack([1 - v, (v - 1) % n, (v + 1) % n])
        # the - move of x + e_d follows its + move when that exists
        slot = np.stack([np.zeros_like(v), np.zeros_like(v), wrap | (v + 2 < n)])
        block, row = np.nonzero(exists)
        src = states[row]
        src[np.arange(row.size), dims[row]] = value[block, row]
        return row, src, first[row] + slot[block, row]

    def all_neighbors_of(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened neighborhoods of a batch.

        Returns (row, position, dst_states): one entry per edge leaving a
        batch state, where ``row`` indexes back into the batch.
        """
        states = np.asarray(states, dtype=np.int64)
        row, pos = csr_rows(_indptr(self.degrees_of(states)))
        dst = self.neighbor_states_at(states[row], pos)
        return row, pos, dst

    # -- whole-graph views ----------------------------------------------------

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency over flat indices: (indptr, indices)."""
        if self._adj is not None:
            return self._adj
        n = self.space.require_enumerable("adjacency")
        if self.kind == "complete" and n * (n - 1) > EDGE_CAP:
            raise EnumerationCapExceeded(
                f"complete structure over {n} states has too many edges"
            )
        degs = np.ones(n, dtype=np.int64)
        if self.kind == "grid":
            states = self.space.all_states()
            degs = self.grid_dim_degrees(states).sum(axis=1)
            # one neighbor slot at a time keeps the temporaries at (n, D), not (edges, D)
            slots = np.arange(degs.max()) < degs[:, None]
            nbr = np.zeros(slots.shape, dtype=np.int64)
            for p, has in enumerate(slots.T):
                moved = self._grid_neighbor_at(states[has], np.full(int(has.sum()), p))
                nbr[has, p] = self.space.indices_of(moved)
            indices = nbr[slots]
        elif self.kind == "chain":
            degs[-1] = 0
            indices = np.arange(1, n, dtype=np.int64)
        elif self.kind == "cycle":
            indices = (np.arange(n, dtype=np.int64) + 1) % n
        elif self.kind == "star":
            degs[0] = 0
            indices = np.zeros(n - 1, dtype=np.int64)
        else:  # complete: every other state, ascending
            degs[:] = n - 1
            j = np.arange(n - 1, dtype=np.int64)
            indices = (j + (j >= np.arange(n)[:, None])).ravel()
        self._adj = (_indptr(degs), indices)
        return self._adj

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every directed edge as (src, pos, dst) in CSR order: dst = N(src)[pos]."""
        indptr, indices = self.adjacency()
        src, pos = csr_rows(indptr)
        return src, pos, indices

    def undirected_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Symmetrized adjacency for proposal kernels.

        Returns CSR arrays (indptr, dst, pos, forward): for state u and
        entry k, ``dst[k]`` is an undirected neighbor v. When forward[k]
        is True, v = N(u)[pos[k]]; otherwise u = N(v)[pos[k]] and the
        edge is traversed against its direction. States adjacent in both
        directions appear once, as a forward entry. Each state lists its
        forward entries in neighbor order, then its reverse entries by
        ascending source.
        """
        if self._und is not None:
            return self._und
        src, pos, dst = self.edges()
        n = self.space.total_states
        rev = ~np.isin(dst * n + src, src * n + dst, assume_unique=True)
        owner = np.concatenate([src, dst[rev]])
        other = np.concatenate([dst, src[rev]])
        pos = np.concatenate([pos, pos[rev]])
        fwd = np.arange(owner.size) < src.size
        order = np.lexsort((np.where(fwd, pos, other), ~fwd, owner))
        indptr = _indptr(np.bincount(owner, minlength=n))
        self._und = (indptr, other[order], pos[order], fwd[order])
        return self._und


def _indptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers of rows with the given entry counts."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def csr_rows(indptr: np.ndarray, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(row, offset) of every entry in the given rows of a CSR array (all rows
    by default): the row that owns it and its position within that row. Its
    index into the CSR data arrays is ``indptr[row] + offset``."""
    if rows is None:
        rows = np.arange(indptr.size - 1, dtype=np.int64)
    counts = indptr[rows + 1] - indptr[rows]
    row = np.repeat(rows, counts)
    return row, np.arange(row.size, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)


def build_structure(
    kind: str,
    space: DiscreteSpace,
    boundary: str = "drop",
    explicit_edges: Mapping | None = None,
) -> NeighborhoodStructure:
    """Construct a validated neighborhood structure of the given kind."""
    return NeighborhoodStructure(kind, space, boundary=boundary, explicit_edges=explicit_edges)


def load_explicit_edges(path) -> dict[State, list[State]]:
    """Parse an edge-list file: one ``src -> dst`` per line, states as
    comma-separated integers. Blank lines and ``#`` comments are skipped."""
    adj: dict[State, list[State]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "->" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'src -> dst', got {raw!r}")
            src_s, dst_s = line.split("->", 1)
            try:
                src = tuple(int(v) for v in src_s.strip().split(","))
                dst = tuple(int(v) for v in dst_s.strip().split(","))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed state") from exc
            adj.setdefault(src, [])
            if dst in adj[src]:
                raise ValueError(f"{path}:{lineno}: duplicate edge {src} -> {dst}")
            adj[src].append(dst)
    return adj


@dataclass
class ReverseIndex:
    """Maps each state x' to every (x, i) pair with N(x)[i] = x'.

    Stored as CSR over flat destination indices so estimator draws are
    O(1): the pairs of x' are ``src``/``pos`` over ``indptr[x']:indptr[x' + 1]``.
    """

    structure: NeighborhoodStructure
    indptr: np.ndarray
    src: np.ndarray
    pos: np.ndarray

    def counts_of(self, states: np.ndarray) -> np.ndarray:
        flat = self.structure.space.indices_of(np.asarray(states, dtype=np.int64))
        return self.indptr[flat + 1] - self.indptr[flat]


def build_reverse_index(structure: NeighborhoodStructure) -> ReverseIndex:
    """Invert the neighbor map; costs O(number of edges)."""
    n = structure.space.require_enumerable("reverse index")
    src, pos, dst = structure.edges()
    order = np.argsort(dst, kind="stable")
    indptr = _indptr(np.bincount(dst, minlength=n))
    return ReverseIndex(structure=structure, indptr=indptr, src=src[order], pos=pos[order])


def _is_single_component(n: int, a: np.ndarray, b: np.ndarray) -> bool:
    """True iff the undirected edges (a[k], b[k]) join all of 0..n-1.

    Each round hooks every root to the smallest root it shares an edge with
    and pointer-jumps to the new roots. Hooks point to smaller labels, so
    they form a forest; unlike min-label propagation, the rounds do not grow
    with the graph's diameter.
    """
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        if np.array_equal(ra, rb):
            return bool(np.all(parent == parent[0]))
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]


def is_weakly_connected(structure: NeighborhoodStructure) -> bool:
    """True iff the undirected view joins every state of the (enumerable)
    space; the answer is cached on the structure."""
    if structure._connected is None:
        n = structure.space.require_enumerable("connectivity check")
        src, _, dst = structure.edges()
        structure._connected = _is_single_component(n, src, dst)
    return structure._connected
