"""Tent noise, corner posteriors, score recovery, closed-form denoising."""

import numpy as np
import pytest

from csm import denoise
from csm.denoise import (
    denoise_sample,
    make_ratio_fn,
    perturb,
    posterior_weights,
    recover_stein_score,
    sample_triangular,
    tabular_stein_field,
    triangular_pdf,
)
from csm.exact import TabularDistribution, reconstruct_density
from csm.graphs import DiscreteSpace, build_structure
from csm.models import LogitTableModel


def _convolved(p: TabularDistribution):
    """Oracle: evaluate the tent-convolved density by explicit summation."""
    states = p.space.all_states().astype(np.float64)

    def density(x):
        u = np.atleast_1d(np.asarray(x, dtype=np.float64))[None, :] - states
        return float((p.mass * np.maximum(0.0, 1.0 - np.abs(u)).prod(axis=1)).sum())

    return density


class TestTriangularPdf:
    def test_peak_is_one(self):
        assert triangular_pdf(np.array([0.0])) == 1.0

    def test_half_height(self):
        assert triangular_pdf(np.array([0.5])) == 0.5

    def test_outside_support(self):
        assert triangular_pdf(np.array([1.2])) == 0.0

    def test_product_across_dims(self):
        assert triangular_pdf(np.array([0.5, -0.5])) == pytest.approx(0.25)

    def test_integrates_to_one(self):
        u = np.linspace(-1.5, 1.5, 20001)[:, None]
        vals = triangular_pdf(u)
        assert np.trapezoid(vals, dx=u[1, 0] - u[0, 0]) == pytest.approx(1.0, abs=1e-6)


class TestPerturb:
    def test_support_bound(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 16, size=(5000, 1))
        noisy = perturb(x, rng)
        assert np.abs(noisy - x).max() < 1.0

    def test_moments(self):
        rng = np.random.default_rng(1)
        t = sample_triangular(1_000_000, rng)
        assert abs(t.mean()) < 0.002
        assert t.var() == pytest.approx(1.0 / 6.0, abs=0.002)


class TestRatioPreservation:
    def test_integer_point_ratios(self):
        """Tent-convolved mass at integers equals the clean mass exactly."""
        rng = np.random.default_rng(2)
        p = TabularDistribution.random_positive(DiscreteSpace((12,)), rng)
        conv = _convolved(p)
        for i in range(12):
            assert conv(np.array([float(i)])) == pytest.approx(p.mass[i], abs=1e-15)

    def test_integer_point_ratios_2d(self):
        rng = np.random.default_rng(3)
        p = TabularDistribution.random_positive(DiscreteSpace((4, 5)), rng)
        conv = _convolved(p)
        for idx in range(20):
            state = p.space.state_of(idx)
            ratio = conv(np.asarray(state, float)) / conv(np.zeros(2))
            assert ratio == pytest.approx(p.mass[idx] / p.mass[0], rel=1e-12)


class TestPosterior:
    def test_unit_ratio_weights(self):
        """x=2.3 with equal masses splits 0.7 / 0.3 over the corners."""
        space = DiscreteSpace((6,))
        p = TabularDistribution.uniform(space)
        corners, w = posterior_weights(np.array([2.3]), make_ratio_fn(p))
        np.testing.assert_array_equal(corners[:, 0], [2, 3])
        np.testing.assert_allclose(w, [0.7, 0.3], atol=1e-12)

    def test_ratio_two_weights(self):
        """p(3)/p(2) = 2 reweights the split to 7/13, 6/13."""
        space = DiscreteSpace((6,))
        mass = np.array([1.0, 1.0, 1.0, 2.0, 1.0, 1.0])
        p = TabularDistribution(space, mass / mass.sum())
        _, w = posterior_weights(np.array([2.3]), make_ratio_fn(p))
        np.testing.assert_allclose(w, [7 / 13, 6 / 13], atol=1e-12)

    def test_exact_integer_concentrates(self):
        space = DiscreteSpace((6,))
        p = TabularDistribution.uniform(space)
        corners, w = posterior_weights(np.array([4.0]), make_ratio_fn(p))
        assert w[list(map(tuple, corners)).index((4,))] == pytest.approx(1.0)

    def test_normalization_random_points(self):
        rng = np.random.default_rng(4)
        p = TabularDistribution.random_positive(DiscreteSpace((6, 6)), rng)
        ratio = make_ratio_fn(p)
        for _ in range(100):
            x = rng.uniform(-0.99, 5.99, size=2)
            _, w = posterior_weights(x, ratio)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(w >= 0)

    def test_boundary_cell_excludes_outside_corner(self):
        space = DiscreteSpace((6,))
        p = TabularDistribution.uniform(space)
        corners, w = posterior_weights(np.array([-0.4]), make_ratio_fn(p))
        weights = dict(zip(map(tuple, corners), w))
        assert weights[(-1,)] == 0.0
        assert weights[(0,)] == pytest.approx(1.0)

    def test_posterior_matches_bayes_oracle(self):
        """Corner weights equal tent-likelihood times prior, renormalized."""
        rng = np.random.default_rng(5)
        p = TabularDistribution.random_positive(DiscreteSpace((5, 4)), rng)
        ratio = make_ratio_fn(p)
        for _ in range(50):
            x = rng.uniform(0.01, 2.99, size=2)
            corners, w = posterior_weights(x, ratio)
            oracle = np.array([
                p.mass[p.space.index_of(c)] * triangular_pdf(x - c) for c in corners
            ])
            np.testing.assert_allclose(w, oracle / oracle.sum(), atol=1e-12)


class TestSteinRecovery:
    def test_flat_interpolation_zero(self):
        p = TabularDistribution.uniform(DiscreteSpace((8,)))
        s = recover_stein_score(np.array([3.4]), make_ratio_fn(p))
        assert s[0] == pytest.approx(0.0, abs=1e-14)

    def test_hand_value_ratio_two(self):
        """r=2 at midpoint gives (2-1)/(2*0.5 + 0.5) = 2/3."""
        space = DiscreteSpace((4,))
        mass = np.array([1.0, 1.0, 2.0, 1.0])
        p = TabularDistribution(space, mass / mass.sum())
        s = recover_stein_score(np.array([1.5]), make_ratio_fn(p))
        assert s[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_matches_convolution_derivative(self):
        """Recovered score equals the log-derivative of the tent mixture."""
        rng = np.random.default_rng(6)
        p = TabularDistribution.random_positive(DiscreteSpace((16,)), rng)
        conv = _convolved(p)
        ratio = make_ratio_fn(p)
        h = 1e-6
        for _ in range(100):
            x = float(rng.uniform(0.05, 14.95))
            if abs(x - round(x)) < 1e-3:
                x += 0.01
            s = recover_stein_score(np.array([x]), ratio)[0]
            num = (np.log(conv([x + h])) - np.log(conv([x - h]))) / (2 * h)
            assert s == pytest.approx(num, abs=1e-6)

    def test_matches_convolution_derivative_2d(self):
        rng = np.random.default_rng(7)
        p = TabularDistribution.random_positive(DiscreteSpace((5, 5)), rng)
        conv = _convolved(p)
        ratio = make_ratio_fn(p)
        h = 1e-6
        for _ in range(30):
            x = rng.uniform(0.05, 3.95, size=2)
            x[np.abs(x - np.round(x)) < 1e-3] += 0.01
            s = recover_stein_score(x, ratio)
            for d in range(2):
                up, down = x.copy(), x.copy()
                up[d] += h
                down[d] -= h
                num = (np.log(conv(up)) - np.log(conv(down))) / (2 * h)
                assert s[d] == pytest.approx(num, abs=1e-6)

    def test_field_matches_convolution_derivative_3d(self):
        """The block field against a central difference of the log of the
        explicitly convolved density, in every dimension."""
        rng = np.random.default_rng(14)
        p = TabularDistribution.random_positive(DiscreteSpace((4, 3, 5)), rng)
        conv = _convolved(p)
        pts = rng.uniform(0.05, np.array([2.95, 1.95, 3.95]), size=(30, 3))
        pts[np.abs(pts - np.round(pts)) < 1e-3] += 0.01
        field = tabular_stein_field(p)(pts)
        h = 1e-6
        for x, s in zip(pts, field):
            for d in range(3):
                step = h * np.eye(3)[d]
                num = (np.log(conv(x + step)) - np.log(conv(x - step))) / (2 * h)
                assert s[d] == pytest.approx(num, abs=1e-6)

    def test_field_matches_pointwise(self):
        rng = np.random.default_rng(8)
        p = TabularDistribution.random_positive(DiscreteSpace((9,)), rng)
        field = tabular_stein_field(p)
        ratio = make_ratio_fn(p)
        pts = rng.uniform(0.05, 7.95, size=(50, 1))
        batch = field(pts)
        for x, got in zip(pts, batch):
            assert got[0] == pytest.approx(recover_stein_score(x, ratio)[0], abs=1e-12)


class TestDenoising:
    def test_exact_integer_returns_itself(self):
        p = TabularDistribution.uniform(DiscreteSpace((7,)))
        rng = np.random.default_rng(9)
        assert denoise_sample(np.array([5.0]), make_ratio_fn(p), rng) == (5,)

    def test_point_mass_always_recovers(self):
        space = DiscreteSpace((8,))
        mass = np.zeros(8)
        mass[3] = 1.0
        p = TabularDistribution(space, mass)
        ratio = make_ratio_fn(p)
        rng = np.random.default_rng(10)
        noisy = perturb(np.full((200, 1), 3), rng)
        for x in noisy:
            assert denoise_sample(x, ratio, rng) == (3,)

    def test_denoise_frequencies_match_posterior(self):
        """Draw frequencies reproduce the closed-form corner weights."""
        rng = np.random.default_rng(11)
        p = TabularDistribution.random_positive(DiscreteSpace((6,)), rng)
        ratio = make_ratio_fn(p)
        x = np.array([2.35])
        corners, w = posterior_weights(x, ratio)
        draws = np.array([denoise_sample(x, ratio, rng)[0] for _ in range(100_000)])
        for corner, weight in zip(corners[:, 0], w):
            freq = (draws == corner).mean()
            assert abs(freq - weight) < 3 * np.sqrt(weight * (1 - weight) / draws.size)


class TestRatioFromScores:
    def test_score_model_ratios_match_table(self):
        """Path-product ratios from a score model equal the table's."""
        rng = np.random.default_rng(12)
        p = TabularDistribution.random_positive(DiscreteSpace((10,)), rng)
        cycle = build_structure("cycle", p.space)
        model = LogitTableModel.from_distribution(p)
        ratio = make_ratio_fn(
            reconstruct_density(lambda s: model.score_vector(cycle, s), cycle)
        )
        for _ in range(30):
            i, j = rng.integers(0, 10, size=2)
            assert ratio((int(i),), (int(j),)) == pytest.approx(
                p.mass[i] / p.mass[j], rel=1e-9
            )

    def test_dimension_cap(self):
        p = TabularDistribution.uniform(DiscreteSpace((4,)))
        with pytest.raises(ValueError, match="caps"):
            posterior_weights(np.zeros(13), make_ratio_fn(p))


# -- scalar reference: the per-corner walk and per-dimension Stein formula
# that the block path replaced, kept here for differential testing --------


def _scalar_ratio_fn(dist: TabularDistribution):
    space = dist.space

    def mass(state) -> float:
        if not space.contains(state):
            return 0.0
        return float(dist.mass[space.index_of(tuple(int(v) for v in state))])

    def ratio(y, x) -> float:
        py, px = mass(y), mass(x)
        if py == 0.0:
            return 0.0
        if px == 0.0:
            return np.inf
        return py / px

    return ratio


def _ref_cell(x):
    ndim = x.size
    base = np.floor(x).astype(np.int64)
    t = x - base
    bits = (np.arange(2**ndim)[:, None] >> np.arange(ndim)[None, :]) & 1
    tent = np.where(bits == 1, t[None, :], 1.0 - t[None, :])
    return base[None, :] + bits, bits, t, tent


def _ref_relative_masses(corners, ratio_fn):
    m = corners.shape[0]
    anchor = next((i for i in range(m) if ratio_fn(corners[i], corners[i]) == 1.0), None)
    if anchor is None:
        raise ValueError("all corner masses are zero at this point")
    rel = np.full(m, -1.0)
    rel[anchor] = 1.0
    frontier = [anchor]
    while frontier:
        nxt = []
        for cur in frontier:
            for d in range(corners.shape[1]):
                other = cur ^ (1 << d)
                if rel[other] >= 0:
                    continue
                r = ratio_fn(corners[other], corners[cur])
                if rel[cur] == 0.0 and np.isinf(r):
                    continue
                rel[other] = rel[cur] * r
                nxt.append(other)
        frontier = nxt
    rel[rel < 0] = 0.0
    return rel


def _ref_posterior(x, ratio_fn):
    corners, _, _, tent = _ref_cell(x)
    w = _ref_relative_masses(corners, ratio_fn) * tent.prod(axis=1)
    if w.sum() <= 0:
        raise ValueError("posterior has zero total weight at this point")
    return corners, w / w.sum()


def _ref_stein(x, ratio_fn):
    corners, bits, t, tent = _ref_cell(x)
    rel = _ref_relative_masses(corners, ratio_fn)
    out = np.empty(x.size)
    for d in range(x.size):
        others = np.delete(tent, d, axis=1).prod(axis=1)
        a = float((rel * others)[bits[:, d] == 0].sum())
        b = float((rel * others)[bits[:, d] == 1].sum())
        denom = a * (1.0 - t[d]) + b * t[d]
        if denom <= 0:
            raise ValueError("perturbed density vanishes at this point")
        out[d] = (b - a) / denom
    return out


def _sparse_case(ndim: int, seed: int, points: int = 60):
    """Random table with ~30% zero-mass states, and points in boundary
    cells and at exact-integer coordinates."""
    rng = np.random.default_rng(seed)
    space = DiscreteSpace(({5: 3, 12: 2}.get(ndim, 4),) * ndim)
    mass = rng.random(space.total_states)
    mass[rng.random(mass.size) < 0.3] = 0.0
    p = TabularDistribution(space, mass, normalize=True)
    hi = np.asarray(space.dims) - 1.0
    pts = rng.uniform(-0.99, hi + 0.99, size=(points, ndim))
    snap = rng.random(pts.shape) < 0.25
    pts[snap] = np.clip(np.round(pts[snap]), 0, np.broadcast_to(hi, pts.shape)[snap])
    return p, pts


def _table_masses(p: TabularDistribution, corners: np.ndarray) -> np.ndarray:
    inside = np.all((corners >= 0) & (corners < np.asarray(p.space.dims)), axis=-1)
    flat = p.space.indices_of(np.clip(corners, 0, np.asarray(p.space.dims) - 1))
    return np.where(inside, p.mass[flat], 0.0)


def _split_points(p, pts):
    """Points the walk handles, and the rest.

    The walk misses a positive corner that it can reach only through
    zero-mass corners (say, masses on the diagonal of a D = 2 cell) and
    gives it weight 0; the block path reads every corner directly.
    """
    scalar = _scalar_ratio_fn(p)
    good, missed = [], []
    for x in pts:
        corners, _, _, tent = _ref_cell(x)
        mass = _table_masses(p, corners)
        if not np.any(mass * tent.prod(axis=1) > 0):
            continue  # both paths raise here; TestEdgeContracts covers it
        walked = _ref_relative_masses(corners, scalar)
        (good if np.array_equal(walked > 0, mass > 0) else missed).append(x)
    return np.array(good), np.array(missed)


class TestDifferential:
    """The block path against the scalar reference above."""

    @pytest.mark.parametrize("ndim", [1, 2, 3, 5, 12])
    def test_posterior_and_stein_match_reference(self, ndim):
        """Among the points: exact-integer coordinates (t_d = 0) and points
        whose reference corner has zero mass; D = 12 is the enumeration cap."""
        p, pts = _sparse_case(ndim, seed=100 + ndim, points=10 if ndim == 12 else 60)
        good, _ = _split_points(p, pts)
        assert len(good) >= (5 if ndim == 12 else 20)
        assert np.any(good == np.floor(good))
        refs = np.maximum(np.floor(good), 0).astype(np.int64)
        assert np.any(p.mass[p.space.indices_of(refs)] == 0.0)
        block, scalar = make_ratio_fn(p), _scalar_ratio_fn(p)
        for x in good:
            corners, w = posterior_weights(x, block)
            ref_corners, ref_w = _ref_posterior(x, scalar)
            np.testing.assert_array_equal(corners, ref_corners)
            np.testing.assert_allclose(w, ref_w, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(
                recover_stein_score(x, block), _ref_stein(x, scalar), rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("ndim", [1, 2, 3, 5])
    def test_posterior_matches_table_everywhere(self, ndim):
        """Including the cells the walk gets wrong."""
        p, pts = _sparse_case(ndim, seed=100 + ndim)
        good, missed = _split_points(p, pts)
        ratio = make_ratio_fn(p)
        for x in list(good) + list(missed):
            corners, w = posterior_weights(x, ratio)
            want = _table_masses(p, corners) * triangular_pdf(x - corners)
            np.testing.assert_allclose(w, want / want.sum(), rtol=1e-12, atol=1e-12)

    def test_walk_defect_on_diagonal_cell(self):
        space = DiscreteSpace((2, 2))
        p = TabularDistribution(space, np.array([0.5, 0.0, 0.0, 0.5]))
        x = np.array([0.5, 0.5])
        _, ref_w = _ref_posterior(x, _scalar_ratio_fn(p))
        _, w = posterior_weights(x, make_ratio_fn(p))
        np.testing.assert_allclose(ref_w, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(w, [0.5, 0.0, 0.0, 0.5], atol=1e-15)

    @pytest.mark.parametrize("ndim", [1, 2, 3, 5])
    def test_denoise_sample_picks_same_corners(self, ndim):
        p, pts = _sparse_case(ndim, seed=200 + ndim)
        good, _ = _split_points(p, pts)
        block, scalar = make_ratio_fn(p), _scalar_ratio_fn(p)
        for seed in range(5):
            rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for x in good:
                corners, w = _ref_posterior(x, scalar)
                want = tuple(int(v) for v in corners[rng_ref.choice(corners.shape[0], p=w)])
                assert denoise_sample(x, block, rng_new) == want

    @pytest.mark.parametrize("ndim", [1, 2, 3, 5, 12])
    def test_denoise_block_draws_the_point_draws(self, ndim):
        p, pts = _sparse_case(ndim, seed=200 + ndim, points=10 if ndim == 12 else 60)
        good, _ = _split_points(p, pts)
        ratio = make_ratio_fn(p)
        block = denoise_sample(good, ratio, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        assert block.shape == good.shape and block.dtype == np.int64
        assert [tuple(c) for c in block.tolist()] == [denoise_sample(x, ratio, rng) for x in good]

    @pytest.mark.parametrize("ndim", [1, 2, 3, 5])
    def test_block_call_equals_point_calls(self, ndim):
        p, pts = _sparse_case(ndim, seed=300 + ndim)
        good, missed = _split_points(p, pts)
        block = np.concatenate([good, missed.reshape(-1, ndim)])
        ratio = make_ratio_fn(p)
        corners, w = posterior_weights(block, ratio)
        score = recover_stein_score(block, ratio)
        assert corners.shape == (2**ndim, len(block), ndim)
        assert w.shape == (2**ndim, len(block)) and score.shape == block.shape
        for m, x in enumerate(block):
            c1, w1 = posterior_weights(x, ratio)
            np.testing.assert_array_equal(corners[:, m], c1)
            np.testing.assert_allclose(w[:, m], w1, rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(score[m], recover_stein_score(x, ratio), rtol=1e-14, atol=1e-14)


def _corner_masses_from_corner_zero(corners, ratio_fn):
    """Tests-only copy of the earlier reference rule: every point starts from
    corner 0 of its cell, and the points where that corner has no mass (or
    lies outside the space) are re-referenced to their first positive-mass
    corner with a second ratio call."""
    rel = np.asarray(ratio_fn(corners, corners[0]), dtype=np.float64)
    over_zero = np.isinf(rel)
    if over_zero.any():
        cols = np.flatnonzero(over_zero.any(axis=0))
        ref = corners[over_zero[:, cols].argmax(axis=0), cols]
        rel = rel.copy()
        rel[:, cols] = ratio_fn(corners[:, cols], ref)
    return rel


class TestEdgeContracts:
    def test_langevin_box_block_takes_one_ratio_call(self, monkeypatch):
        """Points in (-1, 2)^12 over bits have cells reaching below 0. Referencing
        the first corner inside the space takes one ratio call where corner 0
        took two, with bit-identical posterior weights and Stein scores."""
        rng = np.random.default_rng(17)
        table = make_ratio_fn(TabularDistribution.random_positive(DiscreteSpace((2,) * 12), rng))
        x = rng.uniform(-1.0, 2.0, size=(8, 12))
        calls = []

        def ratio(y, ref):
            calls.append(np.broadcast_shapes(np.shape(y)[:-1], np.shape(ref)[:-1]))
            return table(y, ref)

        def run(rule):
            monkeypatch.setattr(denoise, "_corner_masses", rule)
            calls.clear()
            return posterior_weights(x, ratio)[1], recover_stein_score(x, ratio), list(calls)

        w, score, new_calls = run(denoise._corner_masses)
        ref_w, ref_score, old_calls = run(_corner_masses_from_corner_zero)
        assert new_calls == [(4096, 8)] * 2  # one call per function
        assert old_calls == [(4096, 8)] * 4
        np.testing.assert_array_equal(w, ref_w)
        np.testing.assert_array_equal(score, ref_score)

    def test_block_ratio_conventions(self):
        mass = np.array([0.0, 0.25, 0.75, 0.0])
        ratio = make_ratio_fn(TabularDistribution(DiscreteSpace((4,)), mass))
        assert ratio((0,), (3,)) == 0.0  # 0/0
        assert ratio((1,), (0,)) == np.inf  # x/0
        assert ratio((-1,), (1,)) == 0.0 and ratio((4,), (2,)) == 0.0  # out of space
        assert ratio((2,), (-1,)) == np.inf
        assert ratio((2,), (1,)) == pytest.approx(3.0)
        ys = np.arange(-1, 5).reshape(6, 1, 1)  # (6, 1, 1) against (2, 1)
        got = ratio(ys, np.array([[1], [0]]))
        assert got.shape == (6, 2)
        np.testing.assert_array_equal(got[:, 0], [0.0, 0.0, 1.0, 3.0, 0.0, 0.0])
        np.testing.assert_array_equal(got[:, 1], [0.0, 0.0, np.inf, np.inf, 0.0, 0.0])

    def test_block_ratio_multidim_out_of_space(self):
        p = TabularDistribution.uniform(DiscreteSpace((3, 2)))
        ratio = make_ratio_fn(p)
        got = ratio(np.array([[0, 0], [2, 1], [3, 0], [0, 2], [-1, 1]]), np.array([1, 1]))
        np.testing.assert_array_equal(got, [1.0, 1.0, 0.0, 0.0, 0.0])

    def test_zero_mass_reference_corner(self):
        """Point mass at 3, x = 2.4: the reference corner 2 has no mass."""
        mass = np.zeros(8)
        mass[3] = 1.0
        p = TabularDistribution(DiscreteSpace((8,)), mass)
        ratio = make_ratio_fn(p)
        corners, w = posterior_weights(np.array([2.4]), ratio)
        np.testing.assert_array_equal(corners[:, 0], [2, 3])
        np.testing.assert_array_equal(w, [0.0, 1.0])
        assert denoise_sample(np.array([2.4]), ratio, np.random.default_rng(0)) == (3,)
        # d/dx log(x - 2) at 2.4
        assert recover_stein_score(np.array([2.4]), ratio)[0] == pytest.approx(2.5)

    def test_one_ratio_call_per_block(self):
        """A second call only re-references the points whose reference corner is empty."""
        mass = np.zeros(8)
        mass[[3, 4, 5]] = [0.2, 0.3, 0.5]
        table = make_ratio_fn(TabularDistribution(DiscreteSpace((8,)), mass))
        calls = []

        def ratio(y, x):
            calls.append(np.broadcast_shapes(np.shape(y)[:-1], np.shape(x)[:-1]))
            return table(y, x)

        recover_stein_score(np.array([[3.5], [4.2], [4.9]]), ratio)
        assert calls == [(2, 3)]
        calls.clear()
        _, w = posterior_weights(np.array([[2.4], [3.5], [2.9]]), ratio)
        assert calls == [(2, 3), (2, 2)]
        np.testing.assert_array_equal(w[:, [0, 2]], [[0.0, 0.0], [1.0, 1.0]])

    def test_all_zero_cell_named_error(self):
        mass = np.zeros(8)
        mass[[1, 6]] = 0.5
        p = TabularDistribution(DiscreteSpace((8,)), mass)
        with pytest.raises(ValueError, match="all corner masses are zero"):
            posterior_weights(np.array([3.5]), make_ratio_fn(p))
        field = tabular_stein_field(p)
        field(np.array([[1.2], [5.5]]))
        with pytest.raises(ValueError, match="all corner masses are zero"):
            field(np.array([[1.2], [3.5], [5.5]]))

    def test_stein_at_integer_coordinate_2d(self):
        rng = np.random.default_rng(13)
        p = TabularDistribution.random_positive(DiscreteSpace((4, 4)), rng)
        block, scalar = make_ratio_fn(p), _scalar_ratio_fn(p)
        for x in ([2.0, 1.3], [0.6, 1.0], [2.0, 3.0]):
            x = np.array(x)
            np.testing.assert_allclose(
                recover_stein_score(x, block), _ref_stein(x, scalar), rtol=1e-12, atol=1e-12
            )
