"""Neighborhood structures: construction, ordering, inversion, connectivity."""

import numpy as np
import pytest

from csm.graphs import (
    DiscreteSpace,
    EnumerationCapExceeded,
    build_reverse_index,
    build_structure,
    is_weakly_connected,
    load_explicit_edges,
)


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
        space = DiscreteSpace((10, 10), enumeration_cap=50)
        with pytest.raises(EnumerationCapExceeded):
            space.require_enumerable()


class TestStructureKinds:
    def test_star_hub_and_leaves(self):
        star = build_structure("star", DiscreteSpace((6,)))
        assert star.neighbors((0,)) == []
        for i in range(1, 6):
            assert star.neighbors((i,)) == [(0,)]

    def test_grid_corner_drop_policy(self):
        grid = build_structure("grid", DiscreteSpace((2, 2)))
        assert grid.neighbors((0, 0)) == [(1, 0), (0, 1)]

    def test_cycle_wraps(self):
        cycle = build_structure("cycle", DiscreteSpace((4,)))
        assert cycle.neighbors((3,)) == [(0,)]
        cycle16 = build_structure("cycle", DiscreteSpace((16,)))
        assert cycle16.neighbors((15,)) == [(0,)]

    def test_grid_interior_degree(self):
        grid = build_structure("grid", DiscreteSpace((91, 91)))
        assert grid.neighbors((45, 45)) == [(46, 45), (44, 45), (45, 46), (45, 44)]

    def test_complete_excludes_self(self):
        comp = build_structure("complete", DiscreteSpace((3,)))
        assert comp.neighbors((1,)) == [(0,), (2,)]

    def test_grid_wrap_degree_constant(self):
        grid = build_structure("grid", DiscreteSpace((5, 5)), boundary="wrap")
        states = grid.space.all_states()
        np.testing.assert_array_equal(grid.degrees_of(states), 4)
        assert grid.uniform_degree() == 4

    def test_binary_dims_are_single_flips(self):
        grid = build_structure("grid", DiscreteSpace((2, 2, 2)))
        assert grid.neighbors((0, 1, 0)) == [(1, 1, 0), (0, 0, 0), (0, 1, 1)]
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
        for state in [(0, 0), (3, 2), (6, 3)]:
            assert grid.neighbors(state) == grid.neighbors(state)


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
            nbrs = structure.neighbors(state)
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
            assert grid.neighbors(tuple(batch[r]))[p] == tuple(d)


class TestReverseIndex:
    def test_star_reverse_entries(self):
        star = build_structure("star", DiscreteSpace((6,)))
        rev = build_reverse_index(star)
        assert rev.entries((0,)) == [((i,), 0) for i in range(1, 6)]
        for i in range(1, 6):
            assert rev.entries((i,)) == []

    def test_cycle_reverse_entries(self):
        rev = build_reverse_index(build_structure("cycle", DiscreteSpace((4,))))
        assert rev.entries((0,)) == [((3,), 0)]

    def test_edge_count_conservation(self):
        grid = build_structure("grid", DiscreteSpace((5, 4)))
        rev = build_reverse_index(grid)
        total = grid.degrees_of(grid.space.all_states()).sum()
        assert rev.total_edges == total

    @pytest.mark.parametrize("kind,dims", [
        ("chain", (20,)), ("cycle", (20,)), ("star", (12,)),
        ("grid", (6, 7)), ("complete", (9,)),
    ])
    def test_soundness_exhaustive(self, kind, dims):
        """(x, i) in rev[x'] if and only if neighbors(x)[i] == x'."""
        structure = build_structure(kind, DiscreteSpace(dims))
        rev = build_reverse_index(structure)
        forward = {}
        for idx in range(structure.space.total_states):
            x = structure.space.state_of(idx)
            for i, nb in enumerate(structure.neighbors(x)):
                forward.setdefault(nb, []).append((x, i))
        for idx in range(structure.space.total_states):
            x = structure.space.state_of(idx)
            assert sorted(rev.entries(x)) == sorted(forward.get(x, []))


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

            def walk(x):
                raise AssertionError("second call walked the graph")

            monkeypatch.setattr(structure, "_neighbor_indices", walk)
            assert is_weakly_connected(structure) is want

    def test_restricted_support(self):
        chain = build_structure("chain", DiscreteSpace((6,)))
        assert is_weakly_connected(chain, support=[(0,), (1,), (2,)])
        assert not is_weakly_connected(chain, support=[(0,), (2,)])

    def test_empty_support_rejected(self):
        chain = build_structure("chain", DiscreteSpace((6,)))
        with pytest.raises(ValueError):
            is_weakly_connected(chain, support=[])


class TestEdgeFile:
    def test_load_and_build(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 -> 1\n1 -> 0\n# comment\n2 -> 1\n")
        edges = load_explicit_edges(path)
        structure = build_structure("explicit", DiscreteSpace((3,)), explicit_edges=edges)
        assert structure.neighbors((2,)) == [(1,)]

    def test_malformed_line_names_location(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 -> 1\nnot an edge\n")
        with pytest.raises(ValueError, match="2"):
            load_explicit_edges(path)
