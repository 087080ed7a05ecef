"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines.
Each criterion states its tolerance inline; nothing is deferred to
later calibration.
"""

import time

import numpy as np
import pytest

from csm import checks
from csm import objectives as obj
from csm.autodiff import gradient_check
from csm.data import gen_1d_toy, gen_2d_toy
from csm.denoise import make_ratio_fn, denoise_sample, perturb, recover_stein_score, tabular_stein_field
from csm.exact import TabularDistribution, kl_and_tv
from csm.graphs import DiscreteSpace, build_reverse_index, build_structure
from csm.models import LogitTableModel, MaskedARModel, ScoreNetModel, fit
from csm.samplers import langevin, run_chain


def _report(num: int, name: str, measured: float, tol: float, passed: bool, t0: float):
    status = "PASS" if passed else "FAIL"
    print(
        f"criterion {num:02d} {status} {name}: measured={measured:.3e} "
        f"tol={tol:.3e} ({time.time() - t0:.1f}s)"
    )
    assert passed, f"criterion {num} {name}: {measured} vs tolerance {tol}"


@pytest.fixture(scope="module")
def trained_toy_model():
    """Criterion 4's training run, shared with criterion 5."""
    t0 = time.time()
    ds = gen_1d_toy(100_000, seed=0)
    structure = build_structure("cycle", ds.space)
    empirical = TabularDistribution.from_samples(ds.space, ds.samples)
    model = LogitTableModel(ds.space, seed=0)
    fit(
        model,
        lambda m, b, r: obj.jcsm_exact(m, empirical, structure),
        ds.samples,
        iterations=10_000,
        batch_size=128,
        lr=5e-4,
        seed=0,
    )
    return ds, structure, model, time.time() - t0


class TestAcceptance:
    def test_01_completeness(self):
        """Score -> reconstruct round trips, 50 distributions x 5 kinds."""
        t0 = time.time()
        results = checks.completeness_suite(seed=0, n_dists=50, tol=1e-10)
        worst = max(r.measured for r in results)
        _report(1, "completeness_round_trip", worst, 1e-10,
                all(r.passed for r in results), t0)

    def test_02_objective_equivalence(self):
        """Exact loss and two-term expansion differ by a constant."""
        t0 = time.time()
        results = checks.equivalence_suite(seed=0, tol=1e-8)
        _report(2, "constant_offset", results[0].measured, 1e-8, results[0].passed, t0)

    def test_03_estimator_unbiasedness(self):
        """10^5-draw estimator means within 3 exact SE of enumeration."""
        t0 = time.time()
        results = checks.estimator_suite(seed=0, draws=100_000)
        worst = max(r.measured / r.tolerance for r in results)
        _report(3, "estimators_within_3se", worst, 1.0, all(r.passed for r in results), t0)

    def test_04_consistency_training(self, trained_toy_model):
        """Enumerated-objective training recovers the 16-category toy."""
        ds, _, model, train_time = trained_toy_model
        t0 = time.time() - train_time
        _, tv = kl_and_tv(model.distribution(), ds.ground_truth)
        _report(4, "trained_tv_vs_truth", tv, 0.02, tv < 0.02, t0)

    def test_05_mh_correctness(self, trained_toy_model):
        """Chain histogram matches the trained model's distribution."""
        t0 = time.time()
        ds, structure, model, _ = trained_toy_model
        samples, _ = run_chain(model, structure, (0,), 100_000, burn_in=10_000, seed=1)
        empirical = TabularDistribution.from_samples(ds.space, samples)
        _, tv = kl_and_tv(empirical, model.distribution())
        _report(5, "mh_tv_vs_model", tv, 0.02, tv < 0.02, t0)

    def test_06_stein_limit(self):
        """Forward-difference error halves (within 30%) per step halving."""
        t0 = time.time()
        results = checks.stein_limit_suite(lo=0.35, hi=0.65)
        _report(6, "error_halving_ratio", results[0].measured, 0.65, results[0].passed, t0)

    def test_07_dcsm_fixed_point(self):
        """Optimized denoising score matches the perturbed-data score."""
        t0 = time.time()
        ds = gen_1d_toy(100, seed=0)
        space, p = ds.space, ds.ground_truth
        structure = build_structure("cycle", space)
        kernel = obj.NoiseKernel(space=space, w=0.9)
        model = LogitTableModel(space, seed=0)
        objective = lambda m, b, r: obj.dcsm_loss_exact(m, p, kernel, structure)
        for lr, iters in ((0.1, 4000), (0.02, 4000), (0.004, 6000), (0.001, 6000)):
            fit(model, objective, ds.samples[:4], iterations=iters, batch_size=1,
                lr=lr, seed=0)
        states = space.all_states()
        pairwise = np.ones((16, 16))
        for d in range(space.ndim):
            pairwise *= kernel.row(d)[np.ix_(states[:, d], states[:, d])]
        perturbed = LogitTableModel.from_distribution(
            TabularDistribution(space, pairwise.T @ p.mass, normalize=True)
        )
        worst = max(
            np.abs(
                model.score_vector(structure, (i,)) - perturbed.score_vector(structure, (i,))
            ).max()
            for i in range(16)
        )
        _report(7, "dcsm_score_error", worst, 1e-3, worst < 1e-3, t0)

    def test_08_denoising_pipeline(self):
        """Perturb, Langevin on the recovered score, denoise in closed form."""
        t0 = time.time()
        ds = gen_1d_toy(20_000, seed=0)
        truth = ds.ground_truth
        rng = np.random.default_rng(42)

        # recovered score against the convolution oracle first
        states = truth.space.all_states().astype(np.float64)

        def convolved(x):
            tents = np.maximum(0.0, 1.0 - np.abs(float(x) - states[:, 0]))
            return float((truth.mass * tents).sum())

        ratio = make_ratio_fn(truth)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            x = float(rng.uniform(0.05, 14.95))
            if abs(x - round(x)) < 1e-3:
                x += 0.01
            s = recover_stein_score(np.array([x]), ratio)[0]
            numeric = (np.log(convolved(x + h)) - np.log(convolved(x - h))) / (2 * h)
            worst = max(worst, abs(s - numeric))
        assert worst < 1e-6

        particles = perturb(ds.samples, rng)
        field = tabular_stein_field(truth)
        traj = langevin(field, particles, step_size=0.005, steps=3000, rng=rng,
                        burn_in=2999, clamp=(-1 + 1e-6, 16 - 1e-6))
        denoised = denoise_sample(traj[-1], ratio, rng)
        empirical = TabularDistribution.from_samples(ds.space, denoised)
        _, tv = kl_and_tv(empirical, truth)
        print(f"    (stein oracle error {worst:.2e} < 1e-6)")
        _report(8, "denoised_tv_vs_truth", tv, 0.03, tv < 0.03, t0)

    def test_09_baseline_degeneracy(self):
        """Degenerate ratio objective ignores data; the fix does not."""
        t0 = time.time()
        check = gen_2d_toy("checkerboard", 300_000, seed=0)
        rings = gen_2d_toy("rings", 300_000, seed=1)
        held = gen_2d_toy("checkerboard", 50_000, seed=7)

        def train(dataset, variant, iters):
            model = LogitTableModel(dataset.space, seed=0)
            fit(model, lambda m, b, r: obj.ratio_matching_loss(m, b, variant),
                dataset.samples, iterations=iters, batch_size=256, lr=5e-3, seed=0)
            return model

        degenerate_a = train(check, "original", 4000)
        degenerate_b = train(rings, "original", 4000)
        probe = check.space.all_states()[::37]
        cond_a = np.exp(degenerate_a.conditional_log_probs_t(probe, 0).data)
        cond_b = np.exp(degenerate_b.conditional_log_probs_t(probe, 0).data)
        uniform_dev = np.abs(cond_a - 1.0 / 91.0).max()
        cross_dev = np.abs(cond_a - cond_b).max()
        assert uniform_dev < 1e-6 and cross_dev < 1e-6, (uniform_dev, cross_dev)

        fixed = train(check, "fixed", 10_000)
        ll_fixed = float(fixed.log_mass_t(held.samples).data.mean())
        ll_degenerate = float(degenerate_a.log_mass_t(held.samples).data.mean())
        gap = ll_fixed - ll_degenerate
        print(f"    (conditionals uniform to {uniform_dev:.1e}, identical to {cross_dev:.1e})")
        _report(9, "heldout_ll_gap_nats", gap, 0.5, gap >= 0.5, t0)

    def test_10_2d_sampling_quality(self):
        """Monte Carlo training on the 91x91 checkerboard, then MH sampling."""
        t0 = time.time()
        ds = gen_2d_toy("checkerboard", 10_000_000, seed=0)
        empirical = TabularDistribution.from_samples(ds.space, ds.samples)
        grid = build_structure("grid", ds.space)
        rev = build_reverse_index(grid)
        model = LogitTableModel(ds.space, seed=0)
        objective = lambda m, b, r: obj.csm_mc_loss(m, b, grid, rev, r)
        # the measured error sources are estimator variance in training (hence
        # large batches for most of the budget) and single-cell mixing in sampling
        schedule = [(25_000, 5e-3, 8192)] * 6 + [(10_000, 1e-3, 4096), (10_000, 5e-4, 4096)]
        for stage, (iters, lr, batch) in enumerate(schedule):
            fit(model, objective, ds.samples, iterations=iters, batch_size=batch,
                lr=lr, seed=stage)
        rng = np.random.default_rng(123)
        pooled = []
        inits = ds.samples[rng.integers(0, ds.samples.shape[0], 32)]
        for c in range(32):
            samples, _ = run_chain(model, grid, tuple(inits[c]), 20_000,
                                   burn_in=1000, seed=1000 + c)
            pooled.append(samples)
        histogram = TabularDistribution.from_samples(ds.space, np.concatenate(pooled))
        _, tv = kl_and_tv(histogram, empirical)
        _report(10, "mh_histogram_tv_vs_data", tv, 0.10, tv < 0.10, t0)

    def test_11_gradient_engine(self):
        """Autodiff vs central differences across model-objective pairs."""
        t0 = time.time()
        rng = np.random.default_rng(0)
        worst = 0.0

        space = DiscreteSpace((6,))
        cycle = build_structure("cycle", space)
        rev = build_reverse_index(cycle)
        p = TabularDistribution.random_positive(space, rng)
        kernel = obj.NoiseKernel(space=space, w=0.85)
        batch = p.sample(48, rng)
        table = LogitTableModel(space)
        table.params["logits"].data = 0.5 * rng.standard_normal(6)
        pairs = [
            lambda: obj.csm_loss_exact(table, p, cycle),
            lambda: obj.jcsm_exact(table, p, cycle),
            lambda: obj.csm_mc_loss(table, batch, cycle, rev, np.random.default_rng(0)),
            lambda: obj.csm_structured_loss(table, batch, cycle, np.random.default_rng(1)),
            lambda: obj.dcsm_loss(table, batch, kernel, cycle, np.random.default_rng(2)),
            lambda: obj.dcsm_loss_exact(table, p, kernel, cycle),
            lambda: obj.ratio_matching_loss(table, batch, "fixed"),
            lambda: obj.ratio_matching_loss(table, batch, "original"),
            lambda: obj.marginalization_loss(table, batch, "fixed"),
            lambda: obj.marginalization_loss(table, batch, "original"),
            lambda: obj.nll_loss(table, batch),
        ]
        for loss in pairs:
            worst = max(worst, gradient_check(table.params, loss,
                                              rng=np.random.default_rng(3))["max_rel_error"])

        net = ScoreNetModel(space, degree=1, hidden=(8,), seed=5)
        for loss in (
            lambda: obj.jcsm_exact(net, p, cycle),
            lambda: obj.csm_mc_loss(net, batch, cycle, rev, np.random.default_rng(0)),
            lambda: obj.csm_structured_loss(net, batch, cycle, np.random.default_rng(1)),
            lambda: obj.dcsm_loss(net, batch, kernel, cycle, np.random.default_rng(2)),
        ):
            worst = max(worst, gradient_check(net.params, loss,
                                              rng=np.random.default_rng(4))["max_rel_error"])

        mar = MaskedARModel(4, hidden=(10,), seed=6)
        bgrid = build_structure("grid", mar.space)
        bbatch = rng.integers(0, 2, size=(24, 4))
        for loss in (
            lambda: obj.nll_loss(mar, bbatch),
            lambda: obj.ratio_matching_loss(mar, bbatch, "fixed"),
            lambda: obj.ratio_matching_loss(mar, bbatch, "original"),
            lambda: obj.marginalization_loss(mar, bbatch, "fixed"),
            lambda: obj.marginalization_loss(mar, bbatch, "original"),
            lambda: obj.csm_structured_loss(mar, bbatch, bgrid, np.random.default_rng(5)),
        ):
            worst = max(worst, gradient_check(mar.params, loss,
                                              rng=np.random.default_rng(6))["max_rel_error"])
        _report(11, "autodiff_vs_finite_diff", worst, 1e-4, worst < 1e-4, t0)
