"""Exact distributions, oracle scores, reconstruction, divergences."""

import numpy as np
import pytest

from csm.exact import (
    SCORE_BLOCK,
    SCORE_CLAMP,
    TabularDistribution,
    kl_and_tv,
    max_cycle_residual,
    reconstruct_density,
    scaled_score_limit,
)
from csm.graphs import DiscreteSpace, build_structure
from csm.models import LogitTableModel, MaskedARModel, ScoreNetModel


class TestTabularDistribution:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TabularDistribution(DiscreteSpace((4,)), np.array([0.3, 0.3, 0.3, 0.3]))

    def test_normalize_flag(self):
        dist = TabularDistribution(DiscreteSpace((4,)), np.ones(4), normalize=True)
        np.testing.assert_allclose(dist.mass, 0.25)

    def test_strictly_positive_flag(self):
        space = DiscreteSpace((3,))
        assert TabularDistribution(space, np.array([0.2, 0.3, 0.5])).strictly_positive
        assert not TabularDistribution(space, np.array([0.5, 0.5, 0.0])).strictly_positive

    def test_csv_round_trip(self, tmp_path):
        space = DiscreteSpace((3, 2))
        rng = np.random.default_rng(0)
        dist = TabularDistribution.random_positive(space, rng)
        path = tmp_path / "dist.csv"
        dist.to_csv(path)
        loaded = TabularDistribution.from_csv(path, space)
        np.testing.assert_array_equal(loaded.mass, dist.mass)


def _oracle_fn(p, structure):
    """The exact score of ``p`` as a per-state score function."""
    oracle = LogitTableModel.from_distribution(p)
    return lambda s: oracle.score_vector(structure, s)


ORACLE_STRUCTURES = [
    ("chain", (24,), "drop"), ("cycle", (24,), "drop"), ("star", (16,), "drop"),
    ("grid", (5, 4), "drop"), ("grid", (5, 4), "wrap"), ("complete", (12,), "drop"),
]


class TestConcreteScore:
    """The exact score of a table: the logit table with logits log p."""

    def test_uniform_scores_are_zero(self):
        space = DiscreteSpace((5,))
        p = TabularDistribution.uniform(space)
        for kind in ("cycle", "complete", "chain"):
            structure = build_structure(kind, space)
            for i in range(5):
                np.testing.assert_allclose(_oracle_fn(p, structure)((i,)), 0.0, atol=1e-15)

    def test_two_state_example(self):
        space = DiscreteSpace((2,))
        p = TabularDistribution(space, np.array([0.25, 0.75]))
        score = _oracle_fn(p, build_structure("complete", space))
        np.testing.assert_allclose(score((0,)), [2.0])
        np.testing.assert_allclose(score((1,)), [-2.0 / 3.0])

    def test_star_example(self):
        space = DiscreteSpace((6,))
        p = TabularDistribution(space, np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1]))
        score = _oracle_fn(p, build_structure("star", space))
        for i in range(1, 6):
            np.testing.assert_allclose(score((i,)), [4.0])
        assert score((0,)).size == 0

    def test_zero_mass_state_rejected(self):
        p = TabularDistribution(DiscreteSpace((3,)), np.array([0.5, 0.0, 0.5]))
        with pytest.raises(ValueError, match=r"strictly positive distribution; zero mass at \(1,\)"):
            LogitTableModel.from_distribution(p)

    def test_out_of_range_state_rejected(self):
        space = DiscreteSpace((3,))
        score = _oracle_fn(TabularDistribution.uniform(space), build_structure("chain", space))
        for bad in [(3,), (-1,), (0, 0)]:
            with pytest.raises(ValueError, match="invalid"):
                score(bad)

    @pytest.mark.parametrize("kind,dims,boundary", ORACLE_STRUCTURES)
    def test_entries_on_every_edge_match_mass_ratios(self, kind, dims, boundary):
        """Every CSR edge reads p(dst) / p(src) - 1. The tolerance is on the
        ratio c + 1: subtracting 1 cancels digits when the ratio is near 1."""
        structure = build_structure(kind, DiscreteSpace(dims), boundary=boundary)
        p = TabularDistribution.random_positive(structure.space, np.random.default_rng(21))
        src, pos, dst = structure.edges()
        c = LogitTableModel.from_distribution(p).score_entries(
            structure, structure.space.states_of(src), pos
        )
        np.testing.assert_allclose(c + 1.0, p.mass[dst] / p.mass[src], rtol=1e-13)

    def test_distribution_round_trip(self):
        rng = np.random.default_rng(22)
        for dims in ((24,), (16,), (5, 4), (12,)):
            p = TabularDistribution.random_positive(DiscreteSpace(dims), rng)
            q = LogitTableModel.from_distribution(p).distribution()
            np.testing.assert_allclose(q.mass, p.mass, rtol=0, atol=1e-15)


class TestReconstruction:
    def test_round_trip_two_states(self):
        space = DiscreteSpace((2,))
        p = TabularDistribution(space, np.array([0.25, 0.75]))
        comp = build_structure("complete", space)
        recon = reconstruct_density(_oracle_fn(p, comp), comp)
        assert np.abs(recon.mass - p.mass).max() < 1e-12

    def test_zero_scores_give_uniform(self):
        space = DiscreteSpace((7,))
        cycle = build_structure("cycle", space)
        recon = reconstruct_density(lambda s: np.zeros(len(s)), cycle)
        np.testing.assert_allclose(recon.mass, 1.0 / 7.0, atol=1e-14)

    def test_disconnected_support_raises(self):
        edges = {(0,): [(1,)], (1,): [(0,)], (2,): [(3,)], (3,): [(2,)]}
        structure = build_structure("explicit", DiscreteSpace((4,)), explicit_edges=edges)
        with pytest.raises(ValueError, match="disconnected"):
            reconstruct_density(lambda s: np.zeros(1), structure)

    @pytest.mark.parametrize("kind,dims", [
        ("chain", (24,)), ("cycle", (24,)), ("star", (16,)),
        ("grid", (5, 5)), ("complete", (12,)),
    ])
    def test_round_trip_random(self, kind, dims):
        """Round trips through the exact score recover the distribution."""
        rng = np.random.default_rng(11)
        structure = build_structure(kind, DiscreteSpace(dims))
        for _ in range(10):
            p = TabularDistribution.random_positive(structure.space, rng)
            recon = reconstruct_density(_oracle_fn(p, structure), structure)
            assert np.abs(recon.mass - p.mass).max() < 1e-10

    def test_root_independence(self):
        """Reconstruction is invariant to the BFS root for true scores."""
        rng = np.random.default_rng(3)
        structure = build_structure("grid", DiscreteSpace((6, 6)))
        p = TabularDistribution.random_positive(structure.space, rng)
        fn = _oracle_fn(p, structure)
        a = reconstruct_density(fn, structure, root=(0, 0))
        b = reconstruct_density(fn, structure, root=(5, 3))
        assert np.abs(a.mass - b.mass).max() < 1e-10

    def test_cycle_residual_flags_inconsistent_scores(self):
        space = DiscreteSpace((6,))
        comp = build_structure("complete", space)
        rng = np.random.default_rng(5)
        p = TabularDistribution.random_positive(space, rng)
        consistent = _oracle_fn(p, comp)
        assert max_cycle_residual(consistent, comp) < 1e-10
        noisy = lambda s: consistent(s) + 0.05 * rng.standard_normal(5 * len(s))
        assert max_cycle_residual(noisy, comp) > 1e-3
        # a one-pass iterable support is read once
        support = ((i,) for i in range(4))
        assert max_cycle_residual(consistent, comp, support=support) < 1e-10

    def test_score_length_must_match_degree(self):
        grid = build_structure("grid", DiscreteSpace((3, 3)))
        # both read the 6 tree owners (17 neighbors) in one block first
        match = r"the 6 states from \(0, 0\) on, which have 17 neighbors"
        for length in (1, 5):
            for op in (reconstruct_density, max_cycle_residual):
                with pytest.raises(ValueError, match=match):
                    op(lambda s: np.zeros(length * len(s)), grid)
        # the star's tree edges never read the hub's scores; the residual does
        star = build_structure("star", DiscreteSpace((4,)))
        reconstruct_density(lambda s: np.zeros(len(s)), star)
        with pytest.raises(ValueError, match=r"the 4 states from \(0,\) on, which have 3 neighbors"):
            max_cycle_residual(lambda s: np.zeros(len(s)), star)


def _reference_reconstruct(score_fn, structure, support=None, root=None):
    """Tests-only copy of the per-state reconstruction: a Python BFS over the
    undirected view that calls ``score_fn`` on one state at each tree owner,
    caches its vector, and adds log1p steps as it walks. Returns the masses
    and the number of clamped tree entries."""
    space = structure.space
    n = space.total_states
    member = [support is None] * n
    for s in support or ():
        member[space.index_of(s)] = True
    root_idx = member.index(True) if root is None else space.index_of(root)
    scores = {}

    def entry(i, k):
        if i not in scores:
            scores[i] = np.asarray(score_fn(space.state_of(i)), dtype=np.float64)
        return float(scores[i][k])

    indptr, dst, pos, fwd = (a.tolist() for a in structure.undirected_view())
    seen = [not m for m in member]
    seen[root_idx] = True
    lm = np.full(n, -np.inf)
    lm[root_idx] = 0.0
    clamped, frontier = 0, [root_idx]
    while frontier:
        nxt = []
        for u in frontier:
            for k in range(indptr[u], indptr[u + 1]):
                v = dst[k]
                if seen[v]:
                    continue
                c = entry(u if fwd[k] else v, pos[k])
                if c <= -1.0 + SCORE_CLAMP:
                    clamped, c = clamped + 1, -1.0 + SCORE_CLAMP
                lm[v] = lm[u] + np.log1p(c) if fwd[k] else lm[u] - np.log1p(c)
                seen[v] = True
                nxt.append(v)
        frontier = nxt
    mass = np.exp(lm - lm.max())
    return mass / mass.sum(), clamped


def _explicit_case():
    """A random explicit graph on 12 states with a support of 8 and a root."""
    rng = np.random.default_rng(31)
    edges = {(u,): [(v,) for v in range(12) if v != u and rng.random() < 0.2] for u in range(12)}
    edges[(10,)] = [(11,)]
    for u in range(1, 9):  # a directed path keeps the support connected
        if (u + 1,) not in edges[(u,)]:
            edges[(u,)].append((u + 1,))
    structure = build_structure("explicit", DiscreteSpace((12,)), explicit_edges=edges)
    return structure, [(i,) for i in range(1, 10)], (5,)


class TestReconstructionDifferential:
    """The vectorised tree and block reads against the per-state Python BFS."""

    @pytest.mark.parametrize("kind,dims,boundary", ORACLE_STRUCTURES + [("explicit", None, None)])
    def test_logit_tables_bit_for_bit(self, kind, dims, boundary):
        support = root = None
        if kind == "explicit":
            structure, support, root = _explicit_case()
        else:
            structure = build_structure(kind, DiscreteSpace(dims), boundary=boundary)
        model = LogitTableModel(structure.space)
        model.logits.data = 2.0 * np.random.default_rng(32).standard_normal(structure.space.total_states)
        fn = lambda s: model.score_vector(structure, s)
        recon = reconstruct_density(fn, structure, support=support, root=root)
        want, _ = _reference_reconstruct(fn, structure, support=support, root=root)
        np.testing.assert_array_equal(recon.mass, want)

    def test_clamped_score_net(self, caplog):
        grid = build_structure("grid", DiscreteSpace((5, 4)), boundary="wrap")
        net = ScoreNetModel(grid.space, degree=4, hidden=(16,), seed=3)
        net.params["w1"].data *= 4.0  # pushes some entries below -1
        fn = lambda s: net.score_vector(grid, s)
        with caplog.at_level("WARNING", logger="csm.exact"):
            recon = reconstruct_density(fn, grid, root=(2, 1))
        want, clamped = _reference_reconstruct(fn, grid, root=(2, 1))
        assert clamped > 0
        assert caplog.messages == [f"reconstruct_density clamped {clamped} score entries at -1"]
        np.testing.assert_allclose(recon.mass, want, rtol=0, atol=1e-15)

    def test_masked_ar(self):
        model = MaskedARModel(8, hidden=(16, 16), seed=4)
        grid = build_structure("grid", model.space)
        fn = lambda s: model.score_vector(grid, s)
        want, _ = _reference_reconstruct(fn, grid)
        np.testing.assert_allclose(reconstruct_density(fn, grid).mass, want, rtol=0, atol=1e-15)

    def test_every_call_holds_at_most_a_block(self):
        grid = build_structure("grid", DiscreteSpace((2,) * 12))
        model = LogitTableModel(grid.space)
        model.logits.data = np.random.default_rng(33).standard_normal(grid.space.total_states)
        sizes = []

        def fn(states):
            c = model.score_vector(grid, states)
            sizes.append(c.size)
            return c

        reconstruct_density(fn, grid)
        assert len(sizes) > 1 and max(sizes) <= SCORE_BLOCK
        sizes.clear()
        max_cycle_residual(fn, grid)
        assert max(sizes) <= SCORE_BLOCK


class TestScaledScoreLimit:
    def test_gaussian_at_origin(self):
        gauss = lambda x: float(np.exp(-0.5 * np.sum(np.asarray(x) ** 2)))
        for delta in (0.2, 0.05):
            out = scaled_score_limit(gauss, np.zeros(3), delta)
            expected = (np.exp(-delta**2 / 2) - 1.0) / delta
            np.testing.assert_allclose(out, expected, rtol=1e-12)
            assert np.all(np.abs(out) < delta)

    def test_gaussian_near_stein_score(self):
        gauss = lambda x: float(np.exp(-0.5 * np.sum(np.asarray(x) ** 2)))
        out = scaled_score_limit(gauss, np.array([1.0]), 1e-3)
        assert abs(out[0] - (-1.0)) < 1e-2

    def test_constant_density_zero(self):
        out = scaled_score_limit(lambda x: 2.5, np.array([0.3, -1.2]), 0.05)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_error_halves_with_delta(self):
        """Forward-difference error scales linearly in the step size."""
        gauss = lambda x: float(np.exp(-0.5 * np.sum(np.asarray(x) ** 2)))
        x = np.array([0.5, 2.0])
        errs = [
            np.linalg.norm(scaled_score_limit(gauss, x, d) - (-x))
            for d in (0.1, 0.05, 0.025)
        ]
        for a, b in zip(errs, errs[1:]):
            assert 0.35 < b / a < 0.65


class TestDivergences:
    def test_identical_distributions(self):
        space = DiscreteSpace((8,))
        p = TabularDistribution.random_positive(space, np.random.default_rng(0))
        kl, tv = kl_and_tv(p, p)
        assert kl == pytest.approx(0.0, abs=1e-14)
        assert tv == pytest.approx(0.0, abs=1e-14)

    def test_point_mass_vs_uniform(self):
        space = DiscreteSpace((2,))
        p = TabularDistribution(space, np.array([1.0, 0.0]))
        q = TabularDistribution(space, np.array([0.5, 0.5]))
        _, tv = kl_and_tv(p, q)
        assert tv == pytest.approx(0.5)

    def test_quarter_tv(self):
        space = DiscreteSpace((2,))
        p = TabularDistribution(space, np.array([0.5, 0.5]))
        q = TabularDistribution(space, np.array([0.25, 0.75]))
        _, tv = kl_and_tv(p, q)
        assert tv == pytest.approx(0.25)

    def test_space_mismatch(self):
        p = TabularDistribution.uniform(DiscreteSpace((4,)))
        q = TabularDistribution.uniform(DiscreteSpace((5,)))
        with pytest.raises(ValueError):
            kl_and_tv(p, q)
