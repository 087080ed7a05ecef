"""Metropolis-Hastings, annealed schedules, Langevin dynamics."""

import math

import numpy as np
import pytest

from csm.autodiff import Tensor
from csm.exact import TabularDistribution, kl_and_tv
from csm.graphs import DiscreteSpace, EnumerationCapExceeded, build_structure
from csm.models import LogitTableModel, MaskedARModel, ScoreModel, ScoreNetModel
from csm.samplers import NaNRatioError, langevin, run_annealed, run_chain


def _two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov p-value."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    d = np.abs(cdf_a - cdf_b).max()
    n_eff = a.size * b.size / (a.size + b.size)
    lam = (np.sqrt(n_eff) + 0.12 + 0.11 / np.sqrt(n_eff)) * d
    k = np.arange(1, 101)
    return float(2 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * lam) ** 2)))


def _random_logit_model(space, seed, scale=1.0):
    model = LogitTableModel(space)
    model.params["logits"].data = scale * np.random.default_rng(seed).standard_normal(
        space.total_states
    )
    return model


class TestRunChain:
    def test_uniform_model_always_accepts_on_symmetric(self):
        space = DiscreteSpace((5, 5))
        grid = build_structure("grid", space, boundary="wrap")
        model = LogitTableModel(space)  # all-zero scores
        _, chain = run_chain(model, grid, (2, 2), 200, seed=0)
        assert chain.accepted == chain.proposed == 200

    def test_acceptance_probability_from_score(self):
        """From state 0, entry 1.5 accepts always; entry -0.5 accepts half the time."""
        space = DiscreteSpace((2,))
        comp = build_structure("complete", space)
        for entry, expected in ((1.5, 1.0), (-0.5, 0.5)):
            model = LogitTableModel(space)
            model.params["logits"].data = np.array([0.0, np.log1p(entry)])
            samples, _ = run_chain(model, comp, (0,), 40_000, seed=1)
            seq = np.concatenate([[0], samples[:, 0]])
            at_zero = seq[:-1] == 0
            rate = (seq[1:][at_zero] == 1).mean()
            assert rate == pytest.approx(expected, abs=0.01)

    def test_cycle_chain_moves_both_ways(self):
        """The undirected view makes directed cycles mix."""
        space = DiscreteSpace((8,))
        cycle = build_structure("cycle", space)
        samples, _ = run_chain(LogitTableModel(space), cycle, (4,), 500, seed=2)
        assert len(set(samples[:, 0].tolist())) == 8

    def test_negative_ratio_clamped_and_counted(self):
        space = DiscreteSpace((2,))
        comp = build_structure("complete", space)

        class BadScore(ScoreModel):
            def score_entries_t(self, structure, states, positions):
                return Tensor(np.full(len(positions), -1.5))

        _, chain = run_chain(BadScore(), comp, (0,), 10, seed=3)
        # both undirected-view entries are clamped once, when the table is built
        assert chain.clamped == 2 and chain.accepted == 0 and chain.proposed == 10

    def test_nan_ratio_raises(self):
        """min(1, nan) would accept; a NaN logit must stop the chain instead."""
        space = DiscreteSpace((8,))
        cycle = build_structure("cycle", space)
        model = LogitTableModel(space)
        model.params["logits"].data[3] = np.nan
        with pytest.raises(NaNRatioError, match="NaN density ratio"):
            run_chain(model, cycle, (3,), 1000, seed=4)

    def test_zero_steps_returns_initial_state(self):
        space = DiscreteSpace((6,))
        model = LogitTableModel(space)
        samples, chain = run_chain(model, build_structure("cycle", space), (3,), 0, seed=0)
        np.testing.assert_array_equal(samples, [[3]])
        assert chain.step == 0

    def test_reproducible_under_seed(self):
        space = DiscreteSpace((10,))
        cycle = build_structure("cycle", space)
        model = _random_logit_model(space, 4)
        a, _ = run_chain(model, cycle, (0,), 2000, seed=11)
        b, _ = run_chain(model, cycle, (0,), 2000, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_refuses_disconnected_structure(self):
        edges = {(0,): [(1,)], (1,): [(0,)], (2,): [(3,)], (3,): [(2,)]}
        structure = build_structure("explicit", DiscreteSpace((4,)), explicit_edges=edges)
        model = LogitTableModel(structure.space)
        with pytest.raises(ValueError, match="connected"):
            run_chain(model, structure, (0,), 100, seed=0)

    def test_stationary_matches_model_16_states(self):
        """Long chains on a cycle, a chain and a drop-boundary grid reproduce
        the model's distribution (the last two reject paths off the ends)."""
        for structure in (
            build_structure("cycle", DiscreteSpace((16,))),
            build_structure("chain", DiscreteSpace((16,))),
            build_structure("grid", DiscreteSpace((4, 4))),
        ):
            space = structure.space
            model = _random_logit_model(space, 5)
            samples, _ = run_chain(model, structure, (0,) * space.ndim, 100_000,
                                   burn_in=10_000, seed=6)
            empirical = TabularDistribution.from_samples(space, samples)
            _, tv = kl_and_tv(empirical, model.distribution())
            assert tv < 0.02, (structure.kind, tv)

    def test_path_through_clamped_edge_is_rejected(self):
        """A path crossing a zero ratio is rejected even when it also crosses
        an infinite one (0 * inf must not become an accepted NaN)."""
        space = DiscreteSpace((8,))
        chain_structure = build_structure("chain", space)

        class Blocked(ScoreModel):
            # entry -1 on edge 2 -> 3 (its reverse ratio is inf), entry -2 on
            # edge 5 -> 6 (both directions clamp to 0): states 6, 7 are cut off
            def score_entries_t(self, structure, states, positions):
                c = np.zeros(len(positions))
                c[states[:, 0] == 2] = -1.0
                c[states[:, 0] == 5] = -2.0
                return Tensor(c)

        samples, chain = run_chain(Blocked(), chain_structure, (7,), 20_000, seed=22)
        assert chain.clamped == 2
        assert samples[:, 0].min() == 6 and chain.accepted > 0

    def test_mode_occupancy_for_peaked_model(self):
        space = DiscreteSpace((12,))
        model = LogitTableModel(space)
        model.params["logits"].data = np.zeros(12)
        model.params["logits"].data[7] = 8.0
        samples, _ = run_chain(model, build_structure("cycle", space), (7,), 20_000,
                               burn_in=2_000, seed=7)
        occupancy = (samples[:, 0] == 7).mean()
        assert occupancy > 0.99

    def test_symmetric_two_state_occupancy(self):
        space = DiscreteSpace((2,))
        comp = build_structure("complete", space)
        model = LogitTableModel(space)
        samples, _ = run_chain(model, comp, (0,), 40_000, burn_in=2_000, seed=8)
        assert samples[:, 0].mean() == pytest.approx(0.5, abs=0.02)

    def test_detailed_balance_on_symmetric_structure(self):
        """Empirical edge flows are equal both ways within 3 sigma."""
        space = DiscreteSpace((4,))
        comp = build_structure("complete", space)
        model = _random_logit_model(space, 9, scale=0.8)
        samples, _ = run_chain(model, comp, (0,), 1_000_000, seed=10)
        seq = samples[:, 0]
        flows = np.zeros((4, 4))
        np.add.at(flows, (seq[:-1], seq[1:]), 1)
        for i in range(4):
            for j in range(i + 1, 4):
                diff = abs(flows[i, j] - flows[j, i])
                sigma = np.sqrt(flows[i, j] + flows[j, i])
                assert diff < 3 * sigma, (i, j, diff, sigma)

    def test_oracle_score_model_sampling(self):
        """Sampling from the exact score of a table recovers the table."""
        space = DiscreteSpace((9,))
        rng = np.random.default_rng(11)
        p = TabularDistribution.random_positive(space, rng)
        oracle = LogitTableModel.from_distribution(p)
        samples, _ = run_chain(oracle, build_structure("cycle", space), (0,), 80_000,
                               burn_in=8_000, seed=12)
        empirical = TabularDistribution.from_samples(space, samples)
        _, tv = kl_and_tv(empirical, p)
        assert tv < 0.03


    def test_needs_enumerable_space_without_connectivity_check(self):
        """The connectivity check and the ratios need the whole space."""
        grid = build_structure("grid", DiscreteSpace((10, 10), enumeration_cap=50))
        model = LogitTableModel(DiscreteSpace((10, 10)))
        with pytest.raises(EnumerationCapExceeded):
            run_chain(model, grid, (0, 0), 10, seed=0)


def _reference_chain(score_model, structure, init, steps, burn_in, thin, seed):
    """Scalar Metropolis-Hastings with a ratio per adjacent ordered pair built
    from ``score_vector``, paths as the product of their unit-step ratios, and
    per-step ``random(3)`` then ``random()`` (``integers`` then ``random()``
    for single-step proposals). Returns (kept flat indices, accepted, clamped)."""
    space = structure.space
    n = space.total_states
    indptr, indices = structure.adjacency()
    ratio, forward = {}, [indices[indptr[u] : indptr[u + 1]].tolist() for u in range(n)]
    for u in range(n):
        for v, c in zip(forward[u], score_model.score_vector(structure, space.state_of(u))):
            ratio[u, v] = float(c) + 1.0
    for (u, v), r in list(ratio.items()):
        ratio.setdefault((v, u), math.inf if r == 0 else 1.0 / r)
    und = [forward[u] + sorted(v for (w, v) in ratio if w == u and v not in forward[u])
           for u in range(n)]
    clamped = sum(r < 0 for r in ratio.values())
    ratio = {k: max(r, 0.0) for k, r in ratio.items()}
    if structure.kind in ("chain", "cycle"):
        lines = [(1, n, structure.kind == "cycle")]
    elif structure.kind == "grid":
        strides = [math.prod(space.dims[d + 1:]) for d in range(space.ndim)]
        lines = [(s, c, structure.boundary == "wrap" or c == 2) for s, c in zip(strides, space.dims)]
    else:
        lines = None
    rng = np.random.default_rng(seed)
    here, accepted, kept = space.index_of(init), 0, []
    for step in range(1, steps + 1):
        there, prob = here, 0.0
        if lines is None:
            there = und[here][int(rng.integers(0, len(und[here])))]
            prob = min(1.0, ratio[here, there] * len(und[here]) / len(und[there]))
        else:
            u_line, u_sign, u_len = rng.random(3).tolist()
            stride, cells, wrap = lines[int(u_line * len(lines))]
            sign = 1 if u_sign < 0.5 else -1
            length = min(int(math.exp(u_len * math.log(cells))), cells - 1)
            v = (here // stride) % cells
            if wrap or 0 <= v + sign * length < cells:
                path = [here + ((v + sign * i) % cells - v) * stride for i in range(length + 1)]
                seg = [ratio[p, q] for p, q in zip(path, path[1:])]
                there = path[-1]
                prob = 0.0 if min(seg) == 0 else min(1.0, math.prod(seg))
        if rng.random() < prob:
            here, accepted = there, accepted + 1
        if step > burn_in and (step - burn_in) % thin == 0:
            kept.append(here)
    return np.asarray(kept), accepted, clamped


def _differential_cases():
    for kind, dims, boundary in (
        ("chain", (3, 5), "drop"),
        ("cycle", (3, 5), "drop"),
        ("grid", (6, 5), "drop"),
        ("grid", (4, 6), "wrap"),
        ("grid", (2,) * 5, "drop"),
        ("complete", (6,), "drop"),
        ("star", (7,), "drop"),
    ):
        space = DiscreteSpace(dims)
        yield (f"logit-{kind}-{boundary}-{len(dims)}d", _random_logit_model(space, 30, scale=2.0),
               build_structure(kind, space, boundary=boundary))
    for kind, boundary in (("chain", "drop"), ("cycle", "drop"), ("grid", "drop"),
                           ("grid", "wrap")):
        model = MaskedARModel(5, hidden=(16,), seed=31)
        yield f"masked-ar-{kind}-{boundary}", model, build_structure(
            kind, model.space, boundary=boundary)
    space = DiscreteSpace((12,))
    net = ScoreNetModel(space, degree=1, hidden=(8,), seed=2)
    net.params["w1"].data *= 4.0  # two entries under -1: four clamped ratios
    yield "score-net-cycle", net, build_structure("cycle", space)


class TestDensityNaNContract:
    """A density model's log-mass pass is checked whole before the first step,
    as the score-entry ratio table is."""

    def _raises_before_first_step(self, model, structure, match):
        rng = np.random.default_rng(40)
        with pytest.raises(NaNRatioError, match=match):
            run_chain(model, structure, (0,), 1000, rng=rng)
        assert rng.random() == np.random.default_rng(40).random()

    def test_adjacent_minus_inf_logits_name_their_edge(self):
        space = DiscreteSpace((20,))
        model = LogitTableModel(space)
        model.params["logits"].data[[10, 11]] = -np.inf
        self._raises_before_first_step(
            model, build_structure("cycle", space), r"edge \(10,\) -> \(11,\)")

    def test_nan_logit_at_unvisited_state(self):
        space = DiscreteSpace((20,))
        model = LogitTableModel(space)
        model.params["logits"].data[10] = np.nan
        self._raises_before_first_step(
            model, build_structure("chain", space), r"edge \(9,\) -> \(10,\)")


class TestDifferential:
    """run_chain against the scalar reference kernel: same seeds, same output."""

    CASES = list(_differential_cases())

    @pytest.mark.parametrize("name, model, structure", CASES, ids=[c[0] for c in CASES])
    def test_matches_scalar_reference(self, name, model, structure):
        init = (0,) * structure.space.ndim
        for seed in range(5):
            samples, chain = run_chain(model, structure, init, 2000, burn_in=100, thin=3,
                                       seed=seed)
            kept, accepted, clamped = _reference_chain(model, structure, init, 2000, 100, 3,
                                                       seed)
            np.testing.assert_array_equal(structure.space.indices_of(samples), kept)
            assert (chain.accepted, chain.proposed, chain.clamped) == (accepted, 2000, clamped)
        assert clamped == (4 if name == "score-net-cycle" else 0)


class TestAnnealed:
    def test_single_level_equals_run_chain(self):
        space = DiscreteSpace((8,))
        cycle = build_structure("cycle", space)
        model = _random_logit_model(space, 13)
        a, _ = run_annealed([model], cycle, (0,), 5000, seed=14, burn_in=500)
        b, _ = run_chain(model, cycle, (0,), 5000, burn_in=500, seed=14)
        np.testing.assert_array_equal(a, b)

    def test_empty_sequence_rejected(self):
        cycle = build_structure("cycle", DiscreteSpace((4,)))
        with pytest.raises(ValueError):
            run_annealed([], cycle, (0,), 100, seed=0)

    def test_identical_levels_match_double_length_chain(self):
        """Final states of a 2-level schedule look like one long chain."""
        space = DiscreteSpace((10,))
        cycle = build_structure("cycle", space)
        model = _random_logit_model(space, 15)
        finals_annealed = []
        finals_single = []
        for rep in range(100):
            _, chain = run_annealed([model, model], cycle, (0,), 400, seed=100 + rep)
            finals_annealed.append(chain.current[0])
            _, chain = run_chain(model, cycle, (0,), 800, seed=5000 + rep)
            finals_single.append(chain.current[0])
        p = _two_sample_ks(np.asarray(finals_annealed, float), np.asarray(finals_single, float))
        assert p > 0.01

    def test_final_level_dominates_modes(self):
        """Samples end up on the last model's modes, not the first's."""
        space = DiscreteSpace((12,))
        cycle = build_structure("cycle", space)
        low, high = LogitTableModel(space), LogitTableModel(space)
        low.params["logits"].data = np.zeros(12)
        low.params["logits"].data[2] = 6.0
        high.params["logits"].data = np.zeros(12)
        high.params["logits"].data[9] = 6.0
        samples, _ = run_annealed([low, high], cycle, (2,), 20_000, seed=16, burn_in=2_000)
        assert (samples[:, 0] == 9).mean() > 0.9


class TestLangevin:
    def test_zero_score_is_random_walk(self):
        traj = langevin(lambda x: np.zeros_like(x), np.zeros(2000), step_size=0.04,
                        steps=1, seed=17)
        assert traj.shape == (1, 2000)
        assert traj[0].var() == pytest.approx(0.04, rel=0.15)

    def test_gaussian_stationary_variance(self):
        """Score -x holds the discretized chain near unit variance."""
        eps = 0.01
        traj = langevin(lambda x: -x, np.zeros(8), step_size=eps, steps=100_000,
                        burn_in=10_000, thin=10, seed=18)
        target = 1.0 / (1.0 - eps / 4.0)
        assert traj.var() == pytest.approx(target, rel=0.10)

    def test_noise_free_mode_ascent(self):
        """Without noise the update climbs a concave log-density monotonically."""
        traj = langevin(lambda x: -x, np.full(4, 3.0), step_size=0.1, steps=50,
                        noise_scale=0.0, seed=19)
        dens = -0.5 * (traj**2).sum(axis=1)
        assert np.all(np.diff(dens) > 0)

    def test_clamp_keeps_box(self):
        traj = langevin(lambda x: np.zeros_like(x), np.zeros(100), step_size=1.0,
                        steps=200, clamp=(-0.5, 0.5), seed=20)
        assert traj.min() >= -0.5 and traj.max() <= 0.5

    def test_non_finite_score_raises(self):
        with pytest.raises(FloatingPointError):
            langevin(lambda x: np.full_like(x, np.nan), np.zeros(3), 0.1, 10, seed=21)
