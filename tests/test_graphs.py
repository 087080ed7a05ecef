"""Neighborhood structures: construction, ordering, inversion, connectivity."""

import numpy as np
import pytest

from csm.graphs import (
    BOUNDARIES,
    DiscreteSpace,
    EnumerationCapExceeded,
    build_reverse_index,
    build_structure,
    csr_rows,
    is_weakly_connected,
    load_explicit_edges,
)


def reference_neighbors(structure, x):
    """Per-state reference of each kind's neighbor rule, as flat indices."""
    space = structure.space
    if structure.kind == "grid":
        out = []
        for d, n in enumerate(space.dims):
            v = x[d]
            if n == 2:
                out.append(space.index_of(x[:d] + (1 - v,) + x[d + 1 :]))
                continue
            if structure.boundary == "wrap" or v + 1 < n:
                out.append(space.index_of(x[:d] + ((v + 1) % n,) + x[d + 1 :]))
            if structure.boundary == "wrap" or v > 0:
                out.append(space.index_of(x[:d] + ((v - 1) % n,) + x[d + 1 :]))
        return out
    i, n = space.index_of(x), space.total_states
    if structure.kind == "chain":
        return [] if i == n - 1 else [i + 1]
    if structure.kind == "cycle":
        return [(i + 1) % n]
    if structure.kind == "star":
        return [] if i == 0 else [0]
    assert structure.kind == "complete"
    return [j for j in range(n) if j != i]


def row_states(structure, x):
    """Neighbors of one state, read from its CSR adjacency row."""
    space = structure.space
    indptr, indices = structure.adjacency()
    i = space.index_of(x)
    return [tuple(s) for s in space.states_of(indices[indptr[i] : indptr[i + 1]]).tolist()]


def reference_undirected(rows):
    """Per-state reference undirected view: each state's forward entries in
    neighbor order, then the reverse entries of one-way edges by source."""
    view = [[(v, p, True) for p, v in enumerate(nbrs)] for nbrs in rows]
    for u, nbrs in enumerate(rows):
        for p, v in enumerate(nbrs):
            if u not in rows[v]:
                view[v].append((u, p, False))
    return view


def reference_connected(n, rows):
    """Union-find over the edges of ``rows``."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for u in range(n):
        for v in rows[u]:
            parent[find(u)] = find(v)
    return len({find(i) for i in range(n)}) == 1


def random_explicit(n, rng, density):
    """Random explicit structure over n states and its neighbor lists; some
    states are left unlisted and some are listed with no neighbors."""
    rows = [[] for _ in range(n)]
    edges = {}
    for u in range(n):
        if rng.random() < 0.2:
            continue
        rows[u] = [v for v in rng.permutation(n).tolist() if v != u and rng.random() < density]
        edges[(u,)] = [(v,) for v in rows[u]]
    return build_structure("explicit", DiscreteSpace((n,)), explicit_edges=edges), rows


def csr_lists(structure):
    """The adjacency and the undirected view, as per-state Python lists."""
    indptr, indices = structure.adjacency()
    rows = [indices[indptr[i] : indptr[i + 1]].tolist() for i in range(indptr.size - 1)]
    u_indptr, dst, pos, fwd = structure.undirected_view()
    view = [
        list(zip(dst[lo:hi].tolist(), pos[lo:hi].tolist(), fwd[lo:hi].tolist()))
        for lo, hi in zip(u_indptr[:-1], u_indptr[1:])
    ]
    return rows, view


class TestDiscreteSpace:
    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ValueError):
            DiscreteSpace((1, 4))

    def test_flat_index_round_trip(self):
        space = DiscreteSpace((3, 5, 2))
        for idx in range(space.total_states):
            assert space.index_of(space.state_of(idx)) == idx

    def test_vectorized_indexing_matches_scalar(self):
        space = DiscreteSpace((4, 7))
        states = space.all_states()
        np.testing.assert_array_equal(
            space.indices_of(states), np.arange(space.total_states)
        )

    def test_enumeration_cap(self):
        space = DiscreteSpace((1001, 1000))
        with pytest.raises(EnumerationCapExceeded):
            space.require_enumerable()


class TestStructureKinds:
    def test_star_hub_and_leaves(self):
        star = build_structure("star", DiscreteSpace((6,)))
        assert row_states(star, (0,)) == []
        for i in range(1, 6):
            assert row_states(star, (i,)) == [(0,)]

    def test_grid_corner_drop_policy(self):
        grid = build_structure("grid", DiscreteSpace((2, 2)))
        assert row_states(grid, (0, 0)) == [(1, 0), (0, 1)]

    def test_cycle_wraps(self):
        cycle = build_structure("cycle", DiscreteSpace((4,)))
        assert row_states(cycle, (3,)) == [(0,)]
        cycle16 = build_structure("cycle", DiscreteSpace((16,)))
        assert row_states(cycle16, (15,)) == [(0,)]

    def test_grid_interior_degree(self):
        grid = build_structure("grid", DiscreteSpace((91, 91)))
        assert row_states(grid, (45, 45)) == [(46, 45), (44, 45), (45, 46), (45, 44)]

    def test_complete_excludes_self(self):
        comp = build_structure("complete", DiscreteSpace((3,)))
        assert row_states(comp, (1,)) == [(0,), (2,)]

    def test_grid_wrap_degree_constant(self):
        grid = build_structure("grid", DiscreteSpace((5, 5)), boundary="wrap")
        states = grid.space.all_states()
        np.testing.assert_array_equal(grid.degrees_of(states), 4)
        assert grid.uniform_degree() == 4

    def test_binary_dims_are_single_flips(self):
        grid = build_structure("grid", DiscreteSpace((2, 2, 2)))
        assert row_states(grid, (0, 1, 0)) == [(1, 1, 0), (0, 0, 0), (0, 1, 1)]
        assert grid.uniform_degree() == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_structure("hypercube", DiscreteSpace((4,)))

    def test_explicit_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            build_structure(
                "explicit", DiscreteSpace((3,)), explicit_edges={(0,): [(5,)]}
            )

    def test_neighbors_deterministic(self):
        grid = build_structure("grid", DiscreteSpace((7, 4)))
        states = np.repeat([[0, 0], [3, 2], [6, 3]], 2, axis=0)
        positions = np.zeros(6, dtype=np.int64)
        first = grid.neighbor_states_at(states, positions)
        np.testing.assert_array_equal(grid.neighbor_states_at(states, positions), first)
        np.testing.assert_array_equal(first[0::2], first[1::2])


class TestBatchedQueries:
    @pytest.mark.parametrize("kind,dims,boundary", [
        ("chain", (9,), "drop"),
        ("cycle", (9,), "drop"),
        ("star", (9,), "drop"),
        ("complete", (6,), "drop"),
        ("grid", (4, 5), "drop"),
        ("grid", (4, 5), "wrap"),
        ("grid", (2, 3, 2), "drop"),
    ])
    def test_neighbor_states_at_matches_lists(self, kind, dims, boundary):
        structure = build_structure(kind, DiscreteSpace(dims), boundary=boundary)
        space = structure.space
        for idx in range(space.total_states):
            state = space.state_of(idx)
            nbrs = row_states(structure, state)
            for pos, expected in enumerate(nbrs):
                got = structure.neighbor_states_at(
                    np.asarray([state]), np.asarray([pos])
                )[0]
                assert tuple(got) == expected

    def test_grid_arithmetic_path_beyond_cap(self):
        # 2^40 states cannot be enumerated, grid arithmetic still works
        space = DiscreteSpace(tuple([2] * 40))
        grid = build_structure("grid", space)
        state = np.zeros((1, 40), dtype=np.int64)
        out = grid.neighbor_states_at(state, np.asarray([7]))
        assert out[0, 7] == 1 and out.sum() == 1

    def test_all_neighbors_of_flattens_every_edge(self):
        grid = build_structure("grid", DiscreteSpace((3, 3)))
        batch = grid.space.all_states()
        rows, pos, dst = grid.all_neighbors_of(batch)
        assert rows.size == grid.degrees_of(batch).sum()
        for r, p, d in zip(rows[:20], pos[:20], dst[:20]):
            assert row_states(grid, tuple(batch[r]))[p] == tuple(d)


class TestInEdgesAlong:
    """in_edges_along against the reverse index, on enumerable structures."""

    @pytest.mark.parametrize("kind,dims,boundary", [
        ("chain", (9,), "drop"), ("cycle", (9,), "drop"),
        ("chain", (3, 4), "drop"), ("cycle", (2, 3), "drop"),
        ("grid", (5, 4), "drop"), ("grid", (5, 4), "wrap"),
        ("grid", (2, 3, 4), "drop"), ("grid", (2, 3, 4), "wrap"),
        ("grid", (3, 2, 5), "drop"), ("grid", (2, 2, 2), "wrap"),
        ("grid", (3,), "drop"), ("grid", (3,), "wrap"),
        ("chain", (2,), "drop"), ("cycle", (2,), "drop"), ("cycle", (3,), "drop"),
        ("grid", (2, 5, 2, 3), "drop"), ("grid", (2, 5, 2, 3), "wrap"),
    ])
    def test_matches_reverse_index(self, kind, dims, boundary):
        structure = build_structure(kind, DiscreteSpace(dims), boundary=boundary)
        space = structure.space
        states = space.all_states()
        rev = build_reverse_index(structure)
        n = space.total_states
        # each dimension for every state, then one that varies from state to state
        for along in [np.full(n, d) for d in range(space.ndim)] + [np.arange(n) * 7 % space.ndim]:
            row, src, pos = structure.in_edges_along(states, along)
            np.testing.assert_array_equal(structure.neighbor_states_at(src, pos), states[row])
            got = list(zip(row.tolist(), space.indices_of(src).tolist(), pos.tolist()))
            expected = []
            for x in range(n):
                d = along[x]
                for k in range(rev.indptr[x], rev.indptr[x + 1]):
                    y = int(rev.src[k])
                    # chains and cycles have one line, the flat order
                    if kind != "grid" or states[y][d] != states[x][d]:
                        # documented order: bit flips, then x - e_d, then x + e_d, rows ascending
                        group = 0 if kind != "grid" or dims[d] == 2 else (
                            1 if states[y][d] == (states[x][d] - 1) % dims[d] else 2)
                        expected.append((group, x, y, int(rev.pos[k])))
            assert got == [entry[1:] for entry in sorted(expected)]

    def test_grid_beyond_cap(self):
        grid = build_structure("grid", DiscreteSpace((2,) * 20 + (5,) * 4))
        states = np.random.default_rng(0).integers(0, 2, size=(30, 24))
        along = np.arange(30) % 24
        row, src, pos = grid.in_edges_along(states, along)
        np.testing.assert_array_equal(grid.neighbor_states_at(src, pos), states[row])
        # one flip along a binary dimension; along a five-category one, x + e_d,
        # and x - e_d unless x is on the low edge
        v = states[np.arange(30), along]
        np.testing.assert_array_equal(np.bincount(row, minlength=30), 1 + ((along >= 20) & (v > 0)))

    @pytest.mark.parametrize("kind", ["star", "complete", "explicit"])
    def test_other_kinds_raise(self, kind):
        space = DiscreteSpace((4,))
        edges = {(0,): [(1,)]} if kind == "explicit" else None
        structure = build_structure(kind, space, explicit_edges=edges)
        with pytest.raises(ValueError, match="chain, cycle or grid"):
            structure.in_edges_along(space.all_states(), np.zeros(4, dtype=np.int64))


class TestCsrRows:
    def test_rows_subset_matches_whole_array(self):
        indptr = np.array([0, 2, 2, 5, 6])
        row, offset = csr_rows(indptr)
        np.testing.assert_array_equal(row, [0, 0, 2, 2, 2, 3])
        np.testing.assert_array_equal(offset, [0, 1, 0, 1, 2, 0])
        row, offset = csr_rows(indptr, np.array([3, 1, 2]))
        np.testing.assert_array_equal(row, [3, 2, 2, 2])
        np.testing.assert_array_equal(offset, [0, 0, 1, 2])


class TestAgainstReference:
    """The CSR arrays against the per-state reference rules."""

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("kind,dims", [
        ("chain", (9,)), ("chain", (3, 4)), ("cycle", (9,)), ("cycle", (2, 3)),
        ("star", (9,)), ("complete", (6,)), ("complete", (2, 3)),
        ("grid", (4, 5)), ("grid", (2, 3, 2)), ("grid", (3, 2, 4)), ("grid", (2, 2, 2, 2)),
        ("grid", (5,)), ("chain", (2,)), ("cycle", (2,)), ("cycle", (3,)), ("grid", (2, 5, 2, 3)),
    ])
    def test_standard_kinds(self, kind, dims, boundary):
        structure = build_structure(kind, DiscreteSpace(dims), boundary=boundary)
        space = structure.space
        want = [reference_neighbors(structure, space.state_of(i)) for i in range(space.total_states)]
        rows, view = csr_lists(structure)
        assert rows == want
        assert view == reference_undirected(want)
        assert structure.degrees_of(space.all_states()).tolist() == [len(nbrs) for nbrs in want]

    def test_random_explicit_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            structure, want = random_explicit(int(rng.integers(2, 12)), rng, rng.choice([0.1, 0.4]))
            rows, view = csr_lists(structure)
            assert rows == want
            assert view == reference_undirected(want)

    def test_connectivity_matches_union_find(self):
        rng = np.random.default_rng(1)
        answers = set()
        for _ in range(80):
            n = int(rng.integers(2, 14))
            structure, rows = random_explicit(n, rng, rng.choice([0.05, 0.15, 0.4]))
            want = reference_connected(n, rows)
            assert is_weakly_connected(structure) is want
            answers.add(want)
        assert answers == {True, False}

    def test_long_shuffled_path(self):
        n = 3000
        order = np.random.default_rng(2).permutation(n).tolist()
        edges = {(u,): [(v,)] for u, v in zip(order[:-1], order[1:])}
        space = DiscreteSpace((n,))
        assert is_weakly_connected(build_structure("explicit", space, explicit_edges=edges))
        del edges[(order[n // 2],)]
        assert not is_weakly_connected(build_structure("explicit", space, explicit_edges=edges))

    def test_forty_dimensional_grid(self):
        # 2^38 * 16 states: every query here must run without enumeration
        dims = (2,) * 38 + (4, 4)
        grid = build_structure("grid", DiscreteSpace(dims))
        assert not grid.space.enumerable
        for x in [(0,) * 40, (1,) * 38 + (3, 1)]:
            want = [grid.space.state_of(j) for j in reference_neighbors(grid, x)]
            got = grid.neighbor_states_at(np.tile(x, (len(want), 1)), np.arange(len(want)))
            assert [tuple(s) for s in got.tolist()] == want
            assert grid.degrees_of(np.array([x])).tolist() == [len(want)]

    def test_negative_positions_rejected(self):
        small = build_structure("grid", DiscreteSpace((4, 4)))
        big = build_structure("grid", DiscreteSpace((2,) * 30))
        for grid, x in [(small, [1, 1]), (big, [0] * 30)]:
            with pytest.raises(ValueError, match="out of range"):
                grid.neighbor_states_at(np.asarray([x]), np.asarray([-1]))


class TestReverseIndex:
    @staticmethod
    def pairs(rev, i):
        lo, hi = rev.indptr[i], rev.indptr[i + 1]
        return list(zip(rev.src[lo:hi].tolist(), rev.pos[lo:hi].tolist()))

    def test_star_reverse_entries(self):
        star = build_structure("star", DiscreteSpace((6,)))
        rev = build_reverse_index(star)
        assert self.pairs(rev, 0) == [(i, 0) for i in range(1, 6)]
        np.testing.assert_array_equal(
            rev.counts_of(star.space.all_states()), [5, 0, 0, 0, 0, 0]
        )

    def test_cycle_reverse_entries(self):
        rev = build_reverse_index(build_structure("cycle", DiscreteSpace((4,))))
        assert self.pairs(rev, 0) == [(3, 0)]

    def test_edge_count_conservation(self):
        grid = build_structure("grid", DiscreteSpace((5, 4)))
        rev = build_reverse_index(grid)
        total = grid.degrees_of(grid.space.all_states()).sum()
        assert rev.indptr[-1] == total

    @pytest.mark.parametrize("kind,dims", [
        ("chain", (20,)), ("cycle", (20,)), ("star", (12,)),
        ("grid", (6, 7)), ("complete", (9,)),
    ])
    def test_soundness_exhaustive(self, kind, dims):
        """(x, i) in rev[x'] if and only if N(x)[i] == x'."""
        structure = build_structure(kind, DiscreteSpace(dims))
        space = structure.space
        rev = build_reverse_index(structure)
        forward = {}
        for idx in range(space.total_states):
            for i, nb in enumerate(reference_neighbors(structure, space.state_of(idx))):
                forward.setdefault(nb, []).append((idx, i))
        for idx in range(space.total_states):
            assert sorted(self.pairs(rev, idx)) == sorted(forward.get(idx, []))
        np.testing.assert_array_equal(
            rev.counts_of(space.all_states()),
            [len(forward.get(i, [])) for i in range(space.total_states)],
        )


class TestConnectivity:
    def test_standard_kinds_connected(self):
        for kind, dims in [
            ("chain", (10,)), ("cycle", (10,)), ("star", (6,)),
            ("grid", (5, 5)), ("complete", (5,)),
        ]:
            assert is_weakly_connected(build_structure(kind, DiscreteSpace(dims)))

    def test_two_disjoint_cycles_disconnected(self):
        edges = {(0,): [(1,)], (1,): [(0,)], (2,): [(3,)], (3,): [(2,)]}
        structure = build_structure("explicit", DiscreteSpace((4,)), explicit_edges=edges)
        assert not is_weakly_connected(structure)

    def test_whole_space_answer_is_cached(self, monkeypatch):
        for structure, want in [
            (build_structure("grid", DiscreteSpace((4, 4))), True),
            (build_structure("explicit", DiscreteSpace((4,)),
                             explicit_edges={(0,): [(1,)], (2,): [(3,)]}), False),
        ]:
            assert is_weakly_connected(structure) is want

            def walk():
                raise AssertionError("second call walked the graph")

            monkeypatch.setattr(structure, "edges", walk)
            assert is_weakly_connected(structure) is want


class TestEdgeFile:
    def test_load_and_build(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 -> 1\n1 -> 0\n# comment\n2 -> 1\n")
        edges = load_explicit_edges(path)
        structure = build_structure("explicit", DiscreteSpace((3,)), explicit_edges=edges)
        assert row_states(structure, (2,)) == [(1,)]

    def test_malformed_line_names_location(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 -> 1\nnot an edge\n")
        with pytest.raises(ValueError, match="2"):
            load_explicit_edges(path)
