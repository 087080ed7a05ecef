"""Exact distributions, oracle scores, reconstruction, divergences."""

import numpy as np
import pytest

from csm.exact import (
    TabularDistribution,
    kl_and_tv,
    max_cycle_residual,
    reconstruct_density,
    scaled_score_limit,
)
from csm.graphs import DiscreteSpace, build_structure
from csm.models import LogitTableModel


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
        recon = reconstruct_density(lambda s: np.zeros(1), cycle)
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
        noisy = lambda s: consistent(s) + 0.05 * rng.standard_normal(5)
        assert max_cycle_residual(noisy, comp) > 1e-3
        # a one-pass iterable support is read once
        support = ((i,) for i in range(4))
        assert max_cycle_residual(consistent, comp, support=support) < 1e-10

    def test_score_length_must_match_degree(self):
        grid = build_structure("grid", DiscreteSpace((3, 3)))
        for length in (1, 5):
            for op in (reconstruct_density, max_cycle_residual):
                with pytest.raises(ValueError, match=r"state \(0, 0\), which has 2 neighbors"):
                    op(lambda s: np.zeros(length), grid)
        # the star's tree edges never read the hub's scores; the residual does
        star = build_structure("star", DiscreteSpace((4,)))
        reconstruct_density(lambda s: np.zeros(1), star)
        with pytest.raises(ValueError, match=r"state \(0,\), which has 0 neighbors"):
            max_cycle_residual(lambda s: np.zeros(1), star)


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
