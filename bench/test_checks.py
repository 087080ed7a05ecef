"""Each benchmark check passes on a right input and fails on a wrong one.

Run from the root of a checkout: ``python3 -m pytest bench/test_checks.py -q``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import checks as ck  # noqa: E402
from csm import denoise, exact, graphs, models  # noqa: E402
from csm.data import toy_1d_masses  # noqa: E402


@pytest.fixture
def grid_model():
    space = graphs.DiscreteSpace((5, 4))
    grid = graphs.build_structure("grid", space)
    model = models.LogitTableModel(space, seed=0)
    model.params["logits"].data = np.random.default_rng(0).standard_normal(space.total_states)
    batch = np.random.default_rng(1).integers(0, (5, 4), size=(64, 2))
    return space, grid, model, batch


def test_mc_matches_exact(grid_model):
    space, grid, model, batch = grid_model
    rev = graphs.build_reverse_index(grid)
    assert ck.mc_matches_exact("mc", model, batch, grid, rev).passed
    # every (source, position) pair is still an edge, but filed under the
    # wrong destination, so the J2 term is wrong
    shuffled = dataclasses.replace(rev, src=rev.src[::-1].copy(), pos=rev.pos[::-1].copy())
    assert not ck.mc_matches_exact("mc", model, batch, grid, shuffled).passed


def test_reconstruction_matches_model(grid_model):
    _, grid, model, _ = grid_model
    recon = exact.reconstruct_density(lambda s: model.score_vector(grid, s), grid)
    assert ck.masses_match("recon", recon.mass, model.distribution().mass).passed
    model.params["logits"].data[3] += 1e-6  # logits perturbed after reconstruction
    assert not ck.masses_match("recon", recon.mass, model.distribution().mass).passed


def test_within_floor():
    rng = np.random.default_rng(2)
    mass = np.exp(-0.5 * (np.arange(64) - 20.0) ** 2 / 36.0)
    mass /= mass.sum()
    own = rng.choice(64, size=5000, p=mass)
    assert ck.within_floor("mh", own, mass, 1.5, rng).passed
    other = rng.choice(64, size=5000, p=np.roll(mass, 3))  # another distribution
    assert not ck.within_floor("mh", other, mass, 1.5, rng).passed


def test_sums_to_one():
    model = models.MaskedARModel(6, hidden=(8,), seed=0)
    mass = np.exp(model.log_mass_t(model.space.all_states()).data)
    assert ck.sums_to_one("mass", mass).passed
    assert not ck.sums_to_one("mass", mass[1:]).passed  # a table missing one state


def test_degrees():
    binary = graphs.build_structure("grid", graphs.DiscreteSpace((2,) * 5))
    assert ck.all_equal("deg", np.diff(binary.adjacency()[0]), 5).passed
    assert ck.all_equal("rev", np.diff(graphs.build_reverse_index(binary).indptr), 5).passed
    ternary = graphs.build_structure("grid", graphs.DiscreteSpace((3,) * 5))
    assert not ck.all_equal("deg", np.diff(ternary.adjacency()[0]), 5).passed


def test_tv_lowered():
    assert ck.tv_lowered("tv", 0.4, 0.3).passed
    assert not ck.tv_lowered("tv", 0.4, 0.4).passed


def test_inside_box():
    particles = np.array([[0.5, 3.0], [-0.99, 15.9]])
    assert ck.inside_box("box", particles, -1.0, 16.0).passed
    particles[1, 1] = 16.5
    assert not ck.inside_box("box", particles, -1.0, 16.0).passed


def test_corners_of_cells():
    particles = np.array([[0.3, 2.7], [4.5, -0.2]])
    assert ck.corners_of_cells("corner", np.array([[0, 3], [5, -1]]), particles).passed
    assert not ck.corners_of_cells("corner", np.array([[0, 4], [5, -1]]), particles).passed


def test_stein_matches_central_difference():
    truth = exact.TabularDistribution(graphs.DiscreteSpace((16,)), toy_1d_masses())
    rng = np.random.default_rng(3)

    def recover(dist):
        ratio = denoise.make_ratio_fn(dist)
        return lambda x: denoise.recover_stein_score(np.array([x]), ratio)[0]

    assert ck.stein_matches_central_difference("stein", truth.mass, recover(truth), rng).passed
    other = exact.TabularDistribution(truth.space, truth.mass[::-1].copy())
    assert not ck.stein_matches_central_difference("stein", truth.mass, recover(other), rng).passed


def test_denoised_tv_gate():
    truth = toy_1d_masses()
    rng = np.random.default_rng(4)
    close = ck.histogram(rng.choice(16, size=20_000, p=truth), 16)
    assert ck.below("tv", ck.tv(close, truth), 0.03).passed
    assert not ck.below("tv", ck.tv(np.full(16, 1 / 16), truth), 0.03).passed


def test_tracer_wraps_every_binding():
    import csm
    import tracing
    from csm import samplers

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert samplers.is_weakly_connected is graphs.is_weakly_connected
        assert csm.is_weakly_connected is graphs.is_weakly_connected
        assert graphs.is_weakly_connected.__wrapped__ is not None
        grid = graphs.build_structure("grid", graphs.DiscreteSpace((3, 3)))
        samplers.run_chain(models.LogitTableModel(grid.space), grid, (0, 0), 10, seed=0)
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    inner = names.index("graphs.is_weakly_connected")
    assert tracer.spans[inner][3] == names.index("samplers.run_chain")
    assert not hasattr(graphs.is_weakly_connected, "__wrapped__")


def test_run_refuses_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "denoise-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
