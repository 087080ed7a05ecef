"""CLI: config parsing, commands, exit codes, atomic outputs."""

import os

import numpy as np
import pytest

from csm.cli import build_config, main, parse_config_file
from csm.models import load_checkpoint, save_checkpoint, LogitTableModel, MaskedARModel
from csm.graphs import DiscreteSpace, build_structure
from csm.samplers import run_annealed, run_chain


def _logit_table(dims, seed, scale):
    """A logit table holding ``scale`` times standard-normal logits drawn from ``seed``."""
    model = LogitTableModel(DiscreteSpace(dims), seed=seed)
    model.params["logits"].data = scale * np.random.default_rng(seed).standard_normal(
        model.space.total_states
    )
    return model


class TestConfig:
    def test_parse_file_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\nlr = 0.01\niterations = 5  # trailing\n\nseed=3\n")
        values = parse_config_file(path)
        assert values == {"lr": "0.01", "iterations": "5", "seed": "3"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            build_config({"learning_rate": "0.1"}, {})

    def test_override_beats_file(self):
        cfg = build_config({"lr": "0.1"}, {"lr": "0.2"})
        assert cfg.lr == 0.2

    def test_validation_catches_bad_values(self):
        with pytest.raises(ValueError):
            build_config({"objective": "fisher"}, {})
        with pytest.raises(ValueError):
            build_config({"noise_w": "1.5"}, {})
        with pytest.raises(ValueError):
            build_config({"lr": "-1"}, {})
        for key, value in [("structure", "hypercube:3"), ("boundary", "reflect"), ("model", "mlp")]:
            with pytest.raises(ValueError, match=f"unknown {key} '{value}'"):
                build_config({key: value}, {})
        assert build_config({"structure": "explicit:edges.txt", "model": "masked_ar"}, {})

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_is_named(self, tmp_path, capsys, lr):
        with pytest.raises(ValueError, match=f"lr must be positive and finite, got {lr}"):
            build_config({}, {"lr": lr})
        assert main(["train", "--lr", lr, "--out", str(tmp_path)]) == 1
        assert f"lr must be positive and finite, got {lr}" in capsys.readouterr().err

    def test_malformed_file_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError, match="1"):
            parse_config_file(path)


class TestTrainCommand:
    def _train_args(self, out, extra=()):
        return [
            "train", "--dataset", "toy1d", "--n_samples", "4000",
            "--structure", "cycle", "--model", "logit_table",
            "--objective", "csm_exact", "--iterations", "300",
            "--lr", "0.05", "--seed", "1", "--out", str(out), *extra,
        ]

    def test_train_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(self._train_args(out)) == 0
        for name in ("checkpoint.bin", "train_log.csv", "config_resolved.txt", "summary.csv"):
            assert (out / name).exists(), name
        log = (out / "train_log.csv").read_text().splitlines()
        assert log[0] == "iteration,objective,wall_time_s"
        summary = (out / "summary.csv").read_text()
        assert "final_tv" in summary

    def test_same_seed_same_log(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(self._train_args(out_a)) == 0
        assert main(self._train_args(out_b)) == 0
        log = lambda p: "\n".join(
            ",".join(line.split(",")[:2])  # drop wall time
            for line in (p / "train_log.csv").read_text().splitlines()
        )
        assert log(out_a) == log(out_b)

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        assert main(["train", "--objective", "bogus", "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_score_net_on_fixed_degree(self, tmp_path):
        out = tmp_path / "net"
        args = [
            "train", "--dataset", "toy1d", "--n_samples", "2000",
            "--structure", "cycle", "--model", "score_net", "--hidden", "16",
            "--objective", "csm_structured", "--iterations", "200",
            "--batch_size", "64", "--lr", "0.01", "--seed", "0", "--out", str(out),
        ]
        assert main(args) == 0
        model = load_checkpoint(out / "checkpoint.bin")
        assert model.kind == "score_net"
        assert (model.degree, model.hidden, model.one_hot) == (1, (16,), False)

    @pytest.mark.parametrize("model,structure,message", [
        ("score_net", "chain", "score_net requires a fixed-degree structure"),
        ("masked_ar", "cycle", "masked_ar requires binary data"),
    ])
    def test_model_kind_rejects_its_space(self, tmp_path, capsys, model, structure, message):
        args = [
            "train", "--dataset", "toy1d", "--n_samples", "100", "--structure", structure,
            "--model", model, "--objective", "csm_structured", "--iterations", "1",
            "--out", str(tmp_path / "x"),
        ]
        assert main(args) == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not (tmp_path / "x" / "checkpoint.bin").exists()

    def test_density_objective_rejects_score_net(self, tmp_path, capsys):
        args = [
            "train", "--dataset", "toy1d", "--model", "score_net",
            "--objective", "nll", "--iterations", "10", "--out", str(tmp_path / "x"),
        ]
        assert main(args) == 1


class TestSampleCommand:
    def test_sample_writes_csv_and_pgm(self, tmp_path):
        ckpt = tmp_path / "model.bin"
        model = _logit_table((5, 5), 0, 0.5)
        save_checkpoint(ckpt, model)
        out = tmp_path / "samples"
        args = [
            "sample", "--checkpoint", str(ckpt), "--structure", "grid",
            "--steps", "2000", "--burn_in", "100", "--seed", "4", "--out", str(out),
        ]
        assert main(args) == 0
        rows = (out / "samples.csv").read_text().splitlines()
        assert len(rows) == 1900
        pgm = (out / "histogram.pgm").read_text().splitlines()
        assert pgm[0] == "P2" and pgm[1] == "5 5" and pgm[2] == "255"

    def test_zero_steps_outputs_initial_state(self, tmp_path):
        ckpt = tmp_path / "model.bin"
        save_checkpoint(ckpt, LogitTableModel(DiscreteSpace((6,)), seed=0))
        out = tmp_path / "s0"
        args = [
            "sample", "--checkpoint", str(ckpt), "--structure", "cycle",
            "--steps", "0", "--burn_in", "0", "--init", "2", "--out", str(out),
        ]
        assert main(args) == 0
        assert (out / "samples.csv").read_text() == "2\n"

    def test_fixed_seed_identical_outputs(self, tmp_path):
        ckpt = tmp_path / "model.bin"
        save_checkpoint(ckpt, _logit_table((8,), 1, 1.0))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            args = [
                "sample", "--checkpoint", str(ckpt), "--structure", "cycle",
                "--steps", "3000", "--burn_in", "10", "--seed", "9", "--out", str(out),
            ]
            assert main(args) == 0
            outs.append((out / "samples.csv").read_text())
        assert outs[0] == outs[1]

    def test_annealed_bundle_dispatch(self, tmp_path):
        models = [_logit_table((6,), s, 0.3) for s in (0, 1)]
        ckpt = tmp_path / "bundle.bin"
        save_checkpoint(ckpt, models)
        out = tmp_path / "ann"
        args = [
            "sample", "--checkpoint", str(ckpt), "--structure", "cycle",
            "--steps", "500", "--burn_in", "50", "--out", str(out),
        ]
        assert main(args) == 0
        assert (out / "samples.csv").exists()

    @pytest.mark.parametrize("n_models", [1, 2])
    def test_writes_the_sampler_states(self, tmp_path, n_models):
        """A one-model checkpoint writes the states run_chain keeps, a bundle
        those run_annealed keeps, at the same seed, init, burn-in and thin."""
        models = [_logit_table((5, 4), s, 0.8) for s in range(n_models)]
        ckpt = tmp_path / "ckpt.bin"
        save_checkpoint(ckpt, models if n_models > 1 else models[0])
        out = tmp_path / "s"
        args = [
            "sample", "--checkpoint", str(ckpt), "--structure", "grid", "--init", "1,2",
            "--steps", "3000", "--burn_in", "200", "--thin", "3", "--seed", "7", "--out", str(out),
        ]
        assert main(args) == 0
        grid = build_structure("grid", DiscreteSpace((5, 4)))
        if n_models == 1:
            want, _ = run_chain(models[0], grid, (1, 2), 3000, burn_in=200, thin=3, seed=7)
        else:
            want, _ = run_annealed(models, grid, (1, 2), 3000, burn_in=200, thin=3, seed=7)
        got = np.loadtxt(out / "samples.csv", delimiter=",", dtype=np.int64, ndmin=2)
        assert want.shape == (933, 2)
        np.testing.assert_array_equal(got, want)

    def test_degree_mismatch_fails(self, tmp_path):
        from csm.models import ScoreNetModel

        ckpt = tmp_path / "net.bin"
        save_checkpoint(ckpt, ScoreNetModel(DiscreteSpace((6,)), degree=5, hidden=(4,), seed=0))
        args = [
            "sample", "--checkpoint", str(ckpt), "--structure", "cycle",
            "--steps", "100", "--burn_in", "0", "--out", str(tmp_path / "x"),
        ]
        assert main(args) == 1


class TestEvalCommand:
    def test_uniform_model_mean_ll(self, tmp_path, capsys):
        ckpt = tmp_path / "model.bin"
        save_checkpoint(ckpt, LogitTableModel(DiscreteSpace((16,)), seed=0))
        out = tmp_path / "eval"
        args = [
            "eval", "--checkpoint", str(ckpt), "--dataset", "toy1d",
            "--n_samples", "500", "--seed", "2", "--out", str(out),
        ]
        assert main(args) == 0
        summary = (out / "eval_summary.csv").read_text()
        mean = float(summary.splitlines()[1].split(",")[1])
        assert mean == pytest.approx(-np.log(16.0), abs=1e-9)
        rows = (out / "eval.csv").read_text().splitlines()
        assert len(rows) == 501

    def test_masked_ar_nll_training_reaches_entropy(self, tmp_path):
        """Likelihood-trained conditional model approaches the data entropy."""
        rng = np.random.default_rng(0)
        bits = (rng.random((3000, 8)) < np.array([0.8, 0.2, 0.5, 0.7, 0.3, 0.9, 0.4, 0.6])).astype(int)
        csv = tmp_path / "bits.csv"
        csv.write_text("\n".join(",".join(map(str, row)) for row in bits) + "\n")
        out = tmp_path / "run"
        args = [
            "train", "--dataset", f"csv:{csv}", "--model", "masked_ar",
            "--hidden", "32", "--structure", "grid", "--objective", "nll",
            "--iterations", "3000", "--batch_size", "128", "--lr", "0.01",
            "--seed", "0", "--out", str(out),
        ]
        assert main(args) == 0
        ev = tmp_path / "ev"
        args = [
            "eval", "--checkpoint", str(out / "checkpoint.bin"),
            "--dataset", f"csv:{csv}", "--out", str(ev),
        ]
        assert main(args) == 0
        mean = float((ev / "eval_summary.csv").read_text().splitlines()[1].split(",")[1])
        marg = bits.mean(axis=0)
        entropy = -np.sum(marg * np.log(marg) + (1 - marg) * np.log(1 - marg))
        assert mean == pytest.approx(-entropy, abs=0.05)

    def test_score_net_not_normalizable(self, tmp_path):
        from csm.models import ScoreNetModel

        ckpt = tmp_path / "net.bin"
        save_checkpoint(ckpt, ScoreNetModel(DiscreteSpace((16,)), degree=1, hidden=(4,), seed=0))
        args = ["eval", "--checkpoint", str(ckpt), "--dataset", "toy1d",
                "--out", str(tmp_path / "x")]
        assert main(args) == 1


class TestCheckCommand:
    def test_all_suites_pass(self, tmp_path, capsys):
        out = tmp_path / "all"
        assert main(["check", "all", "--out", str(out)]) == 0
        report = (out / "check_report.csv").read_text()
        assert "completeness_grid" in report and "mh_stationary_tv" in report
        assert "False" not in report

    def test_stein_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "chk"
        assert main(["check", "stein_limit", "--out", str(out)]) == 0
        assert "PASS stein_limit_halving" in capsys.readouterr().out
        assert (out / "check_report.csv").exists()

    def test_equivalence_suite_passes(self, capsys):
        assert main(["check", "equivalence"]) == 0
        assert "PASS objective_equivalence" in capsys.readouterr().out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "nonsense"])


class TestAtomicity:
    def test_no_partial_files_on_interrupt(self, tmp_path, monkeypatch):
        """A crash mid-write leaves no artifact behind."""
        import csm.io as io_mod

        target = tmp_path / "out.csv"
        original = os.replace

        def boom(src, dst):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(RuntimeError):
            io_mod.atomic_write(target, "data")
        monkeypatch.setattr(os, "replace", original)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []
