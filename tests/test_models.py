"""Score and density models: implied scores, masking, checkpoints, fitting."""

import json

import numpy as np
import pytest

from csm import autodiff as ad
from csm.exact import SCORE_BLOCK, TabularDistribution
from csm.graphs import DiscreteSpace, build_structure
from csm.models import (
    _MODEL_KINDS,
    CheckpointError,
    LogitTableModel,
    MaskedARModel,
    ScoreNetModel,
    fit,
    load_checkpoint,
    save_checkpoint,
)
from csm.objectives import jcsm_exact, nll_loss


def _logit_table(dims, seed, scale):
    """A logit table holding ``scale`` times standard-normal logits drawn from ``seed``."""
    model = LogitTableModel(DiscreteSpace(dims), seed=seed)
    model.params["logits"].data = scale * np.random.default_rng(seed).standard_normal(
        model.space.total_states
    )
    return model


class TestLogitTable:
    def test_uniform_log_mass(self):
        model = LogitTableModel(DiscreteSpace((16,)))
        log_mass = model.log_mass_t(np.array([[3], [15]])).data
        assert log_mass[0] == pytest.approx(-np.log(16.0))
        assert log_mass[1] == pytest.approx(-2.7726, abs=1e-4)

    def test_normalization_sums_to_one(self):
        model = _logit_table((4, 5), 1, 1.0)
        states = model.space.all_states()
        total = np.exp(model.log_mass_t(states).data).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_equal_logits_imply_zero_score(self):
        model = LogitTableModel(DiscreteSpace((6,)))
        cycle = build_structure("cycle", model.space)
        np.testing.assert_allclose(model.score_vector(cycle, (2,)), 0.0)

    def test_log_ratio_example(self):
        space = DiscreteSpace((2,))
        model = LogitTableModel(space)
        model.params["logits"].data = np.array([0.0, np.log(3.0)])
        comp = build_structure("complete", space)
        np.testing.assert_allclose(model.score_vector(comp, (0,)), [2.0])

    def test_implied_score_matches_exact(self):
        """Implied scores are the mass ratios of the model's distribution, minus 1."""
        rng = np.random.default_rng(7)
        space = DiscreteSpace((4, 4))
        model = LogitTableModel(space)
        model.params["logits"].data = rng.standard_normal(16)
        p = model.distribution()
        grid = build_structure("grid", space)
        indptr, indices = grid.adjacency()
        for idx in range(16):
            np.testing.assert_allclose(
                model.score_vector(grid, space.state_of(idx)),
                p.mass[indices[indptr[idx] : indptr[idx + 1]]] / p.mass[idx] - 1.0,
                atol=1e-12,
            )

    def test_shift_invariance(self):
        """Adding a constant to every logit leaves the scores unchanged."""
        rng = np.random.default_rng(8)
        space = DiscreteSpace((9,))
        model = LogitTableModel(space)
        model.params["logits"].data = rng.standard_normal(9)
        cycle = build_structure("cycle", space)
        before = [model.score_vector(cycle, (i,)) for i in range(9)]
        model.params["logits"].data = model.params["logits"].data + 17.3
        after = [model.score_vector(cycle, (i,)) for i in range(9)]
        for a, b in zip(before, after):
            np.testing.assert_allclose(a, b, atol=1e-12)


def _model_and_grid(kind):
    """A small model of ``kind`` and a grid it accepts."""
    if kind == "logit_table":
        model = _logit_table((4, 3), 5, 1.0)
        return model, build_structure("grid", model.space)  # degrees 2 to 4
    if kind == "score_net":
        model = ScoreNetModel(DiscreteSpace((4, 3)), degree=4, hidden=(8,), seed=5)
        return model, build_structure("grid", model.space, boundary="wrap")
    model = MaskedARModel(5, hidden=(8,), seed=5)
    return model, build_structure("grid", model.space)


class TestScoreEntries:
    """One ``score_entries_t`` for flat indices (m,) or states (m, D)."""

    @pytest.mark.parametrize("kind", sorted(_MODEL_KINDS))
    def test_flat_indices_and_states_agree(self, kind):
        model, structure = _model_and_grid(kind)
        rng = np.random.default_rng(6)
        flat = rng.integers(0, model.space.total_states, size=20)
        states = model.space.states_of(flat)
        pos = rng.integers(0, structure.degrees_of(states))
        np.testing.assert_array_equal(model.score_entries_t(structure, flat, pos).data,
                                      model.score_entries_t(structure, states, pos).data)

    @pytest.mark.parametrize("kind", sorted(_MODEL_KINDS))
    def test_passed_destinations_match_the_lookup(self, kind):
        model, structure = _model_and_grid(kind)
        rng = np.random.default_rng(8)
        flat = rng.integers(0, model.space.total_states, size=20)
        pos = rng.integers(0, structure.degrees_of(model.space.states_of(flat)))
        dst = structure.neighbor_indices_at(flat, pos)
        np.testing.assert_array_equal(model.score_entries_t(structure, flat, pos, dst).data,
                                      model.score_entries_t(structure, flat, pos).data)

    @pytest.mark.parametrize("n_dims", [12, 70])
    def test_density_entries_are_log_mass_ratios(self, n_dims):
        """Repeated states share a log-mass row; beyond int64 flat indices
        (70 bits) every row is its own."""
        model = MaskedARModel(n_dims, hidden=(6,), seed=2)
        grid = build_structure("grid", model.space)
        states = np.random.default_rng(7).integers(0, 2, size=(5, n_dims))[[0, 1, 1, 2, 3, 4, 4]]
        pos = np.array([0, 1, 1, 3, n_dims - 1, 2, 5])
        dst = grid.neighbor_states_at(states, pos)
        want = np.exp(model.log_mass_unnorm(dst) - model.log_mass_unnorm(states)) - 1.0
        np.testing.assert_allclose(model.score_entries(grid, states, pos), want, rtol=1e-12, atol=1e-15)

    def test_log_mass_read_in_blocks_is_the_tape_pass(self):
        class Recorder(MaskedARModel):
            def log_mass_unnorm_t(self, states):
                self.sizes.append(len(states))
                return super().log_mass_unnorm_t(states)

        model = Recorder(11, hidden=(6,), seed=3)
        states, model.sizes = model.space.all_states(), []
        got = model.log_mass_unnorm(states)
        assert model.sizes == [SCORE_BLOCK] * (len(states) // SCORE_BLOCK)
        np.testing.assert_allclose(got, model.log_mass_unnorm_t(states).data, rtol=1e-13)
        assert model.log_mass_unnorm(states[:0]).shape == (0,)
        table, _ = _model_and_grid("logit_table")
        np.testing.assert_array_equal(table.log_mass_unnorm(table.space.all_states()), table.logits.data)

    def test_logit_table_position_out_of_range(self):
        model, grid = _model_and_grid("logit_table")
        with pytest.raises(ValueError, match="position out of range"):
            model.score_entries(grid, np.array([[0, 0]]), np.array([2]))  # the corner has 2


class TestScoreVector:
    """``score_vector`` on a block is the CSR data of the score over its rows."""

    @pytest.mark.parametrize("kind", sorted(_MODEL_KINDS))
    def test_block_concatenates_rows(self, kind):
        model, structure = _model_and_grid(kind)
        states = model.space.all_states()[np.random.default_rng(5).integers(0, 12, size=7)]
        want = np.concatenate([model.score_vector(structure, s) for s in states])
        np.testing.assert_allclose(model.score_vector(structure, states), want, rtol=1e-14, atol=1e-15)

    def test_out_of_range_row_named(self):
        model = _logit_table((4, 3), 5, 1.0)
        grid = build_structure("grid", model.space)
        for block in ([[0, 0], [4, 0]], [[1, 2], [0, -1]], [[0, 0, 0]]):
            bad = tuple(block[-1])
            with pytest.raises(ValueError, match=rf"state \({bad[0]}, {bad[1]}.*\) invalid"):
                model.score_vector(grid, np.array(block))


class TestScoreNet:
    def test_output_width_matches_degree(self):
        space = DiscreteSpace((16,))
        net = ScoreNetModel(space, degree=1, hidden=(12,), seed=0)
        cycle = build_structure("cycle", space)
        assert net.score_vector(cycle, (5,)).shape == (1,)

    def test_rejects_varying_degree_structure(self):
        space = DiscreteSpace((16,))
        net = ScoreNetModel(space, degree=1, hidden=(12,), seed=0)
        chain = build_structure("chain", space)
        for x in [(5,), (15,)]:  # the last chain state has no neighbors
            with pytest.raises(ValueError, match="structure degree is None"):
                net.score_vector(chain, x)

    def test_deterministic_given_seed(self):
        space = DiscreteSpace((8, 8))
        a = ScoreNetModel(space, degree=4, seed=42)
        b = ScoreNetModel(space, degree=4, seed=42)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_one_hot_encoding_shape(self):
        space = DiscreteSpace((3, 4))
        net = ScoreNetModel(space, degree=4, hidden=(5,), seed=0, one_hot=True)
        enc = net.encode(space.all_states())
        assert enc.shape == (12, 7)
        np.testing.assert_allclose(enc.sum(axis=1), 2.0)

    @pytest.mark.parametrize("one_hot", [False, True])
    def test_one_forward_row_per_distinct_state(self, one_hot):
        """Entries and gradients match a per-entry forward pass to 1e-13, from
        states or flat indices, with one forward row per distinct state."""

        class Recorder(ScoreNetModel):
            def forward_t(self, encoded):
                self.rows = len(encoded)
                return super().forward_t(encoded)

        space = DiscreteSpace((5, 4))
        grid = build_structure("grid", space, boundary="wrap")
        net = Recorder(space, degree=4, hidden=(7, 6), seed=3, one_hot=one_hot)
        rng = np.random.default_rng(8)
        flat, pos = rng.integers(0, 6, size=50), rng.integers(0, 4, size=50)
        seed = rng.standard_normal(50)

        def grads(entries):
            for p in net.params.values():
                p.grad = None
            entries.backward(seed)
            return {name: p.grad.copy() for name, p in net.params.items()}

        states = space.states_of(flat)
        ref = ad.take_pairs(ScoreNetModel.forward_t(net, net.encode(states)), np.arange(50), pos)
        ref_grads = grads(ref)
        for block in (states, flat):
            got = net.score_entries_t(grid, block, pos)
            assert net.rows == np.unique(flat).size
            assert np.abs(got.data - ref.data).max() <= 1e-13 * np.abs(ref.data).max()
            for name, grad in grads(got).items():
                assert np.abs(grad - ref_grads[name]).max() <= 1e-13 * np.abs(ref_grads[name]).max(), name

    def test_affine_encoding_range(self):
        space = DiscreteSpace((16, 91))
        net = ScoreNetModel(space, degree=4, seed=0)
        enc = net.encode(np.array([[0, 0], [15, 90]]))
        np.testing.assert_allclose(enc[0], [-1.0, -1.0])
        np.testing.assert_allclose(enc[1], [1.0, 1.0])


def reference_mlp_draw(widths, seed):
    """Per-layer reference draw: w{l} ~ N(0, 1/fan_in) in layer order, zero b{l}."""
    rng = np.random.default_rng(seed)
    params = {}
    for layer, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        params[f"w{layer}"] = rng.standard_normal((fan_in, fan_out)) / np.sqrt(max(fan_in, 1))
        params[f"b{layer}"] = np.zeros(fan_out)
    return params


def reference_made_masks(n_dims, hidden):
    """MADE degree masks: hidden degrees cycle 1..D-1, output d sees degrees below d."""
    prev, masks = np.arange(1, n_dims + 1), []
    for layer, width in enumerate((*hidden, n_dims)):
        if layer == len(hidden):
            deg = np.arange(1, n_dims + 1)
            masks.append((deg[None, :] > prev[:, None]).astype(np.float64))
        else:
            deg = (np.arange(width) % max(n_dims - 1, 1)) + 1
            masks.append((deg[None, :] >= prev[:, None]).astype(np.float64))
        prev = deg
    return masks


def reference_forward(x, params, masks=None):
    """Numpy tanh MLP over ``params``, weights multiplied by ``masks`` when given."""
    n_layers = len(params) // 2
    h = x
    for layer in range(n_layers):
        w = params[f"w{layer}"] if masks is None else params[f"w{layer}"] * masks[layer]
        h = h @ w + params[f"b{layer}"]
        if layer < n_layers - 1:
            h = np.tanh(h)
    return h


class TestSharedMLP:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("n_dims,hidden", [(5, (7, 6)), (1, (3,)), (4, ())])
    def test_masked_ar_draws_and_masks(self, seed, n_dims, hidden):
        model = MaskedARModel(n_dims, hidden=hidden, seed=seed)
        want = reference_made_masks(n_dims, hidden)
        ref = reference_mlp_draw((n_dims, *hidden, n_dims), seed)
        assert list(model.params) == list(ref)
        for name, arr in ref.items():
            np.testing.assert_array_equal(model.params[name].data, arr)
        assert len(model._masks) == len(want)
        for got, mask in zip(model._masks, want):
            np.testing.assert_array_equal(got, mask)
        x = model.space.all_states()
        np.testing.assert_array_equal(
            model.cond_logits_t(x).data, reference_forward(x.astype(np.float64), ref, want)
        )

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("one_hot", [False, True])
    def test_score_net_draws(self, seed, one_hot):
        space = DiscreteSpace((3, 4))
        net = ScoreNetModel(space, degree=4, hidden=(6, 5), seed=seed, one_hot=one_hot)
        ref = reference_mlp_draw((7 if one_hot else 2, 6, 5, 4), seed)
        assert list(net.params) == list(ref)
        for name, arr in ref.items():
            np.testing.assert_array_equal(net.params[name].data, arr)
        enc = net.encode(space.all_states())
        np.testing.assert_array_equal(net.forward_t(enc).data, reference_forward(enc, ref))


class TestMaskedAR:
    def test_exact_normalization(self):
        model = MaskedARModel(6, hidden=(20, 20), seed=3)
        states = model.space.all_states()
        total = np.exp(model.log_mass_t(states).data).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_fair_bits_log_mass(self):
        model = MaskedARModel(8, hidden=(10,), seed=0)
        for p in model.params.values():
            p.data = np.zeros_like(p.data)
        assert model.log_mass_t(np.zeros((1, 8))).data[0] == pytest.approx(-8 * np.log(2.0))

    @pytest.mark.parametrize("n_dims", [2, 4, 8])
    def test_autoregressive_mask(self, n_dims):
        """Perturbing input d never changes conditional logits at or below d."""
        model = MaskedARModel(n_dims, hidden=(24, 24), seed=9)
        rng = np.random.default_rng(0)
        base = rng.integers(0, 2, size=(1, n_dims))
        ref = model.cond_logits_t(base).data[0]
        for d in range(n_dims):
            flipped = base.copy()
            flipped[0, d] = 1 - flipped[0, d]
            out = model.cond_logits_t(flipped).data[0]
            np.testing.assert_array_equal(out[: d + 1], ref[: d + 1])

    def test_first_conditional_is_marginal(self):
        """Output 0 has no parents, so it ignores the input entirely."""
        model = MaskedARModel(5, hidden=(16,), seed=1)
        rng = np.random.default_rng(2)
        outs = {
            model.cond_logits_t(rng.integers(0, 2, size=(1, 5))).data[0, 0]
            for _ in range(8)
        }
        assert len(outs) == 1


class TestFit:
    def test_deterministic_trajectories(self):
        """Same seed and config give bitwise-identical parameters."""
        space = DiscreteSpace((8,))
        rng = np.random.default_rng(0)
        samples = TabularDistribution.random_positive(space, rng).sample(500, rng)

        def train():
            model = LogitTableModel(space, seed=0)
            fit(model, lambda m, b, r: nll_loss(m, b), samples,
                iterations=50, batch_size=32, lr=1e-2, seed=7)
            return model.params["logits"].data

        np.testing.assert_array_equal(train(), train())

    def test_nll_training_approaches_entropy(self):
        """Likelihood training drives the loss toward the batch entropy."""
        space = DiscreteSpace((6,))
        rng = np.random.default_rng(1)
        p = TabularDistribution.random_positive(space, rng)
        samples = p.sample(4000, rng)
        emp = TabularDistribution.from_samples(space, samples)
        entropy = -float(np.sum(emp.mass[emp.mass > 0] * np.log(emp.mass[emp.mass > 0])))
        model = LogitTableModel(space, seed=0)
        rows = fit(model, lambda m, b, r: nll_loss(m, b), samples,
                   iterations=3000, batch_size=256, lr=0.05, seed=2)
        assert rows[-1][1] == pytest.approx(entropy, abs=0.15)

    def test_non_finite_loss_reports_iteration(self):
        space = DiscreteSpace((4,))
        model = LogitTableModel(space, seed=0)
        samples = np.zeros((10, 1), dtype=np.int64)

        def bad(m, b, r):
            out = nll_loss(m, b)
            out.value = float("nan")
            return out

        with pytest.raises(FloatingPointError, match="iteration 1"):
            fit(model, bad, samples, iterations=5, batch_size=4, lr=0.1, seed=0)


    def test_batches_are_rows_of_the_seeded_draw(self):
        """fit draws samples[rng.integers(0, N, size=batch)] each iteration."""
        samples = np.random.default_rng(3).integers(0, 8, size=(300, 2))
        model = LogitTableModel(DiscreteSpace((8, 8)), seed=0)
        seen = []

        def record(m, b, r):
            seen.append(b.copy())
            return nll_loss(m, b)

        fit(model, record, samples, iterations=4, batch_size=16, lr=1e-2, seed=11)
        rng = np.random.default_rng(11)
        for batch in seen:
            np.testing.assert_array_equal(batch, samples[rng.integers(0, 300, size=16)])


class TestCheckpoints:
    def test_logit_table_round_trip(self, tmp_path):
        model = _logit_table((5, 3), 4, 0.3)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.kind == "logit_table"
        np.testing.assert_array_equal(loaded.params["logits"].data, model.params["logits"].data)

    def test_score_net_round_trip(self, tmp_path):
        net = ScoreNetModel(DiscreteSpace((16,)), degree=1, hidden=(7, 5), seed=2)
        path = tmp_path / "net.bin"
        save_checkpoint(path, net)
        loaded = load_checkpoint(path)
        cycle = build_structure("cycle", net.space)
        np.testing.assert_array_equal(
            loaded.score_vector(cycle, (3,)), net.score_vector(cycle, (3,))
        )

    def test_bundle_round_trip(self, tmp_path):
        models_list = [MaskedARModel(4, hidden=(6,), seed=s) for s in (0, 1)]
        path = tmp_path / "bundle.bin"
        save_checkpoint(path, models_list)
        loaded = load_checkpoint(path)
        assert isinstance(loaded, list) and len(loaded) == 2
        x = np.array([[0, 1, 0, 1]])
        for orig, back in zip(models_list, loaded):
            np.testing.assert_allclose(back.log_mass_t(x).data, orig.log_mass_t(x).data)


    @pytest.mark.parametrize("bundle", [False, True])
    def test_payload_size_must_match_header(self, tmp_path, bundle):
        models_list = [MaskedARModel(3, hidden=(4,), seed=s) for s in (0, 1)]
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, models_list if bundle else models_list[0])
        good = path.read_bytes()
        path.write_bytes(good + b"\x00" * 8)  # one float64 too many
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)
        path.write_bytes(good[:-3])  # cut inside the last parameter
        with pytest.raises(CheckpointError, match="too short"):
            load_checkpoint(path)


def rewrite_header(path, edit):
    """Apply ``edit`` to a checkpoint's JSON header dict in place."""
    line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)


KIND_EXAMPLES = {
    "logit_table": lambda: _logit_table((3, 4), 3, 0.5),
    "score_net": lambda: ScoreNetModel(DiscreteSpace((3, 4)), degree=4, hidden=(5,), seed=1,
                                       one_hot=True),
    "masked_ar": lambda: MaskedARModel(4, hidden=(6, 3), seed=2),
}


class TestCheckpointErrors:
    def test_every_kind_round_trips(self, tmp_path):
        assert set(KIND_EXAMPLES) == set(_MODEL_KINDS)
        for kind, build in KIND_EXAMPLES.items():
            model = build()
            path = tmp_path / f"{kind}.bin"
            save_checkpoint(path, model)
            loaded = load_checkpoint(path)
            assert type(loaded) is _MODEL_KINDS[kind]
            assert loaded.config() == model.config() and loaded.seed == model.seed
            for name, p in model.params.items():
                np.testing.assert_array_equal(loaded.params[name].data, p.data)
            again = tmp_path / f"{kind}-again.bin"
            save_checkpoint(again, loaded)
            assert again.read_bytes() == path.read_bytes()

    def test_score_net_header_without_one_hot_loads(self, tmp_path):
        net = ScoreNetModel(DiscreteSpace((16,)), degree=1, hidden=(4,), seed=0)
        path = tmp_path / "net.bin"
        save_checkpoint(path, net)
        rewrite_header(path, lambda h: h["config"].pop("one_hot"))
        loaded = load_checkpoint(path)
        assert loaded.one_hot is False
        np.testing.assert_array_equal(loaded.params["w0"].data, net.params["w0"].data)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"{not json\n" + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="header is not JSON"):
            load_checkpoint(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, MaskedARModel(3, hidden=(4,), seed=0))
        rewrite_header(path, lambda h: h.update(kind="made"))
        with pytest.raises(CheckpointError, match="unknown model kind 'made'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header,message", [
        ({"kind": "logit_table"}, r"header lacks \['config', 'seed', 'params'\]"),
        ([], "header must be a JSON object, not list"),
        ({"kind": "bundle"}, r"header lacks \['models'\]"),
        ({"kind": "bundle", "models": [3]}, "header must be a JSON object, not int"),
    ])
    def test_malformed_header_is_named(self, tmp_path, header, message):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n")
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_config_missing_key(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, ScoreNetModel(DiscreteSpace((16,)), degree=1, hidden=(4,)))
        rewrite_header(path, lambda h: h["config"].pop("degree"))
        with pytest.raises(CheckpointError, match="missing .*'degree'"):
            load_checkpoint(path)

    def test_config_missing_defaulted_key_is_named(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, MaskedARModel(3, hidden=(4,), seed=0))
        rewrite_header(path, lambda h: h["config"].pop("hidden"))
        with pytest.raises(CheckpointError, match=r"config lacks \['hidden'\]"):
            load_checkpoint(path)

    def test_config_unexpected_key(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, MaskedARModel(3, hidden=(4,), seed=0))
        rewrite_header(path, lambda h: h["config"].update(depth=2))
        with pytest.raises(CheckpointError, match="unexpected .*'depth'"):
            load_checkpoint(path)


class TestGradientFlow:
    def test_jcsm_gradient_vanishes_at_optimum(self):
        """The enumerated objective is stationary at the exact score."""
        rng = np.random.default_rng(10)
        space = DiscreteSpace((16,))
        p = TabularDistribution.random_positive(space, rng)
        cycle = build_structure("cycle", space)
        model = LogitTableModel(space)
        model.params["logits"].data = np.log(p.mass)
        grads = jcsm_exact(model, p, cycle).grads["logits"]
        assert np.abs(grads).max() < 1e-6
