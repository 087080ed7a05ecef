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

Structures are immutable after construction; internal adjacency caches
are built lazily and are safe to share across read-only workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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
        strides = self._strides()
        return states @ strides

    def states_of(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`state_of`; returns an (m, D) int array."""
        idx = np.asarray(indices, dtype=np.int64)
        if self.enumerable:
            return self.all_states()[idx]
        out = np.empty((idx.size, self.ndim), dtype=np.int64)
        rem = idx.copy()
        for d in range(self.ndim - 1, -1, -1):
            out[:, d] = rem % self.dims[d]
            rem //= self.dims[d]
        return out

    def all_states(self) -> np.ndarray:
        """Every state as an (n, D) array in flat-index order (cached)."""
        if self._state_table is None:
            n = self.require_enumerable("all_states")
            table = np.empty((n, self.ndim), dtype=np.int64)
            rem = np.arange(n)
            for d in range(self.ndim - 1, -1, -1):
                table[:, d] = rem % self.dims[d]
                rem //= self.dims[d]
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
        self._explicit: dict[int, tuple[int, ...]] | None = None
        if kind == "explicit":
            if explicit_edges is None:
                raise ValueError("explicit kind requires an adjacency mapping")
            self._explicit = self._validate_explicit(explicit_edges)
        elif explicit_edges is not None:
            raise ValueError("explicit_edges only allowed for the explicit kind")
        self._adj: tuple[np.ndarray, np.ndarray] | None = None
        self._und: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._connected: bool | None = None

    def _validate_explicit(self, edges) -> dict[int, tuple[int, ...]]:
        adj: dict[int, tuple[int, ...]] = {}
        for src, nbrs in edges.items():
            s = self.space.validate_state(src)
            flat = []
            for nbr in nbrs:
                t = self.space.validate_state(nbr)
                if t == s:
                    raise ValueError(f"self-loop at {s}")
                flat.append(self.space.index_of(t))
            if len(set(flat)) != len(flat):
                raise ValueError(f"duplicate neighbors listed for state {s}")
            adj[self.space.index_of(s)] = tuple(flat)
        return adj

    # -- single-state queries -------------------------------------------------

    def neighbors(self, x: Sequence[int]) -> list[State]:
        """Ordered neighbor list of one state (deterministic across calls)."""
        x = self.space.validate_state(x)
        return [self.space.state_of(i) for i in self._neighbor_indices(x)]

    def degree(self, x: Sequence[int]) -> int:
        return len(self._neighbor_indices(self.space.validate_state(x)))

    def _neighbor_indices(self, x: State) -> list[int]:
        space = self.space
        if self.kind == "grid":
            out = []
            for d, n in enumerate(space.dims):
                v = x[d]
                if n == 2:
                    out.append(space.index_of(x[:d] + (1 - v,) + x[d + 1 :]))
                    continue
                if self.boundary == "wrap" or v + 1 < n:
                    out.append(space.index_of(x[:d] + ((v + 1) % n,) + x[d + 1 :]))
                if self.boundary == "wrap" or v > 0:
                    out.append(space.index_of(x[:d] + ((v - 1) % n,) + x[d + 1 :]))
            return out
        i = space.index_of(x)
        n = space.total_states
        if self.kind == "chain":
            return [] if i == n - 1 else [i + 1]
        if self.kind == "cycle":
            return [(i + 1) % n]
        if self.kind == "star":
            return [] if i == 0 else [0]
        if self.kind == "complete":
            return [j for j in range(n) if j != i]
        assert self._explicit is not None
        return list(self._explicit.get(i, ()))

    def uniform_degree(self) -> int | None:
        """Common neighbor count when every state has the same degree, else None."""
        if self.kind == "cycle":
            return 1
        if self.kind == "complete":
            return self.space.total_states - 1
        if self.kind == "grid":
            if self.boundary == "wrap" or all(n == 2 for n in self.space.dims):
                return sum(1 if n == 2 else 2 for n in self.space.dims)
            return None
        if self.kind in ("chain", "star"):
            return None
        indptr, _ = self.adjacency()
        degs = np.diff(indptr)
        return int(degs[0]) if degs.size and np.all(degs == degs[0]) else None

    @property
    def is_symmetric(self) -> bool:
        """True when every edge has its reverse (grid and complete kinds)."""
        return self.kind in ("grid", "complete")

    # -- batched queries ------------------------------------------------------

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
        indptr, indices = self.adjacency()
        flat = self.space.indices_of(states)
        if np.any(positions >= indptr[flat + 1] - indptr[flat]):
            raise ValueError("neighbor position out of range")
        return self.space.states_of(indices[indptr[flat] + positions])

    def _grid_neighbor_at(self, states: np.ndarray, positions: np.ndarray) -> np.ndarray:
        dims = np.asarray(self.space.dims, dtype=np.int64)
        degs = self.grid_dim_degrees(states)
        cum = np.cumsum(degs, axis=1)
        if np.any(positions >= cum[:, -1]):
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

    def all_neighbors_of(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened neighborhoods of a batch.

        Returns (row, position, dst_states): one entry per edge leaving a
        batch state, where ``row`` indexes back into the batch.
        """
        states = np.asarray(states, dtype=np.int64)
        degs = self.degrees_of(states)
        row = np.repeat(np.arange(states.shape[0]), degs)
        pos = np.arange(degs.sum()) - np.repeat(np.cumsum(degs) - degs, degs)
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
        counts = np.zeros(n + 1, dtype=np.int64)
        rows: list[list[int]] = []
        for i in range(n):
            nbrs = self._neighbor_indices(self.space.state_of(i))
            counts[i + 1] = len(nbrs)
            rows.append(nbrs)
        indptr = np.cumsum(counts)
        indices = np.fromiter(
            (j for nbrs in rows for j in nbrs), dtype=np.int64, count=indptr[-1]
        )
        self._adj = (indptr, indices)
        return self._adj

    def undirected_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Symmetrized adjacency for proposal kernels.

        Returns CSR arrays (indptr, dst, pos, forward): for state u and
        entry k, ``dst[k]`` is an undirected neighbor v. When forward[k]
        is True, v = N(u)[pos[k]]; otherwise u = N(v)[pos[k]] and the
        edge is traversed against its direction. States adjacent in both
        directions appear once, as a forward entry.
        """
        if self._und is not None:
            return self._und
        indptr, indices = self.adjacency()
        n = self.space.total_states
        per_state: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
        seen: list[set[int]] = [set() for _ in range(n)]
        for u in range(n):
            for k in range(indptr[u], indptr[u + 1]):
                v = int(indices[k])
                pos = k - indptr[u]
                per_state[u].append((v, pos, True))
                seen[u].add(v)
        for u in range(n):
            for k in range(indptr[u], indptr[u + 1]):
                v = int(indices[k])
                if u not in seen[v]:
                    per_state[v].append((u, k - indptr[u], False))
                    seen[v].add(u)
        u_indptr = np.zeros(n + 1, dtype=np.int64)
        for u in range(n):
            u_indptr[u + 1] = u_indptr[u] + len(per_state[u])
        total = int(u_indptr[-1])
        dst = np.empty(total, dtype=np.int64)
        pos = np.empty(total, dtype=np.int64)
        fwd = np.empty(total, dtype=bool)
        k = 0
        for u in range(n):
            for v, p, f in per_state[u]:
                dst[k], pos[k], fwd[k] = v, p, f
                k += 1
        self._und = (u_indptr, dst, pos, fwd)
        return self._und


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
    O(1); :meth:`entries` gives the tuple-state view.
    """

    structure: NeighborhoodStructure
    indptr: np.ndarray
    src: np.ndarray
    pos: np.ndarray

    def count(self, x: Sequence[int]) -> int:
        i = self.structure.space.index_of(self.structure.space.validate_state(x))
        return int(self.indptr[i + 1] - self.indptr[i])

    def counts_of(self, states: np.ndarray) -> np.ndarray:
        flat = self.structure.space.indices_of(np.asarray(states, dtype=np.int64))
        return self.indptr[flat + 1] - self.indptr[flat]

    def entries(self, x: Sequence[int]) -> list[tuple[State, int]]:
        space = self.structure.space
        i = space.index_of(space.validate_state(x))
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return [(space.state_of(int(s)), int(p)) for s, p in zip(self.src[lo:hi], self.pos[lo:hi])]

    @property
    def total_edges(self) -> int:
        return int(self.indptr[-1])


def build_reverse_index(structure: NeighborhoodStructure) -> ReverseIndex:
    """Invert the neighbor map; costs O(number of edges)."""
    n = structure.space.require_enumerable("reverse index")
    indptr, indices = structure.adjacency()
    order = np.argsort(indices, kind="stable")
    counts = np.bincount(indices, minlength=n)
    rev_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=rev_indptr[1:])
    src_of_edge = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    pos_of_edge = np.arange(indptr[-1], dtype=np.int64) - indptr[src_of_edge]
    return ReverseIndex(
        structure=structure,
        indptr=rev_indptr,
        src=src_of_edge[order],
        pos=pos_of_edge[order],
    )


class _UnionFind:
    def __init__(self, ids: Iterable[int]):
        self.parent = {i: i for i in ids}
        self.n_components = len(self.parent)

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:  # path compression
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            self.n_components -= 1


def is_weakly_connected(
    structure: NeighborhoodStructure, support: Iterable[Sequence[int]] | None = None
) -> bool:
    """True iff the undirected view restricted to ``support`` is connected.

    ``support=None`` means the whole (enumerable) space, and the answer
    is cached on the structure. Edges leaving the support are ignored.
    """
    space = structure.space
    if support is None:
        if structure._connected is not None:
            return structure._connected
        n = space.require_enumerable("connectivity check")
        ids = range(n)
    else:
        ids = sorted({space.index_of(space.validate_state(s)) for s in support})
        if not ids:
            raise ValueError("empty support")
    members = set(ids)
    uf = _UnionFind(members)
    for i in members:
        for j in structure._neighbor_indices(space.state_of(i)):
            if j in members:
                uf.union(i, j)
    if support is None:
        structure._connected = uf.n_components == 1
    return uf.n_components == 1
