"""The benchmark's three workloads.

Each workload is one learn -> sample -> reconstruct -> denoise pipeline
over the public API of ``csm``:

1. set-up: generate or load the data, build the neighbourhood structure,
   its whole-graph views, the reverse index where the objective uses one,
   and check connectivity (``setup``, timed once, cold);
2. the full pipeline pass: train a fresh model with ``models.fit``, run MH
   chains with ``samplers.run_chain``, rebuild the distribution from the
   trained score with ``exact.reconstruct_density``, move tent-perturbed
   data through ``samplers.langevin`` on ``denoise.tabular_stein_field`` of
   the ground truth and draw each particle's clean state with
   ``denoise.denoise_sample`` (criterion 8's pipeline).

The full pass runs once per run and ``checks`` inspects its outputs; timed
rounds then repeat a seeded slice of every stage (see :class:`Pipeline`).
The workloads differ in what dominates each stage (see bench/README.md).
"""

from __future__ import annotations

import os
import time

import numpy as np

from csm import data, denoise, exact, graphs, models, samplers
from csm import objectives as obj

import checks as ck
from reference import reference


class Pipeline:
    """One workload: set-up, the full pipeline pass, timed rounds and checks.

    A round runs a slice of every stage (``unit_*`` below) so that each
    stage is timed many times per run; a slice of a stage costs the same
    per unit of work as the full pass does.
    """

    name = ""
    # full pipeline pass: training iterations, MH chains of ``steps`` steps,
    # reconstruction calls, Langevin steps over ``particles``, denoised points
    iters = batch = 0
    lr = 0.0
    chains = steps = burn_in = 0
    # the chains are autocorrelated, so their histogram sits above the
    # i.i.d. floor by a factor that depends on the workload, not the seed
    mh_floor_multiple = 0.0
    recon_calls = 1
    particles = langevin_steps = points = 0
    step_size = 0.005
    # one round: iterations, chains, reconstruction calls, Langevin steps, points
    unit_iters = unit_chains = unit_recon = unit_steps = unit_points = 1

    def __init__(self, seed: int, tracer, out_dir: str):
        self.seed = seed
        self.tr = tracer
        self.out_dir = out_dir

    # -- workload-specific parts ----------------------------------------------

    def setup(self):
        raise NotImplementedError

    def new_model(self):
        raise NotImplementedError

    def model_mass(self, model) -> np.ndarray:
        return model.distribution().mass

    # -- shared ---------------------------------------------------------------

    def _finish_setup(self, structure, truth, samples, reverse_index=None):
        """Whole-graph views and the connectivity check every workload pays."""
        structure.adjacency()
        structure.undirected_view()
        if not graphs.is_weakly_connected(structure):
            raise RuntimeError(f"{self.name}: structure is not weakly connected")
        self.structure = structure
        self.reverse_index = reverse_index
        self.truth = truth
        self.samples = samples
        self.space = structure.space
        self.box = (-1 + 1e-6, max(structure.space.dims) - 1e-6)
        rng = np.random.default_rng(self.seed + 1)
        self.inits = samples[rng.integers(0, samples.shape[0], self.chains)]
        self.start = denoise.perturb(samples[: self.particles], rng)
        self.field = self.tr.fn("denoise.stein_field", denoise.tabular_stein_field(truth))
        self.ratio = denoise.make_ratio_fn(truth)
        self.traced_ratio = self.tr.counted("denoise.ratio_fn", self.ratio)

    def _train(self, iters: int):
        model = self.new_model()
        if self.tr.enabled:
            model.score_entries = self.tr.fn("models.score_entries", model.score_entries)
        with self.tr.stage("train"):
            t = time.perf_counter()
            models.fit(model, self.objective, self.samples, iterations=iters,
                       batch_size=self.batch, lr=self.lr, seed=self.seed)
            return model, (iters * self.batch, time.perf_counter() - t)

    def _sample(self, model, chain_ids):
        elapsed, kept, stats = 0.0, [], np.zeros(3, dtype=np.int64)
        with self.tr.stage("mh"):
            for c in chain_ids:
                t = time.perf_counter()
                states, chain = samplers.run_chain(
                    model, self.structure, tuple(int(v) for v in self.inits[c]), self.steps,
                    burn_in=self.burn_in, seed=self.seed * 1000 + c)
                elapsed += time.perf_counter() - t
                kept.append(self.space.indices_of(states))
                stats += (chain.accepted, chain.proposed, chain.clamped)
        return np.concatenate(kept), stats, (len(chain_ids) * self.steps, elapsed)

    def _reconstruct(self, model, calls: int):
        with self.tr.stage("reconstruct"):
            score_fn = self.tr.fn("exact.score_fn",
                                  lambda s: model.score_vector(self.structure, s))
            t = time.perf_counter()
            for _ in range(calls):
                recon = exact.reconstruct_density(score_fn, self.structure)
            return recon, (self.space.total_states * calls, time.perf_counter() - t)

    def _langevin(self, steps: int):
        with self.tr.stage("langevin"):
            rng = np.random.default_rng(self.seed + 2)
            t = time.perf_counter()
            traj = samplers.langevin(self.field, self.start, self.step_size, steps,
                                     rng=rng, burn_in=steps - 1, clamp=self.box)
            return traj[-1], (self.particles * steps, time.perf_counter() - t)

    def _denoise(self, particles: np.ndarray):
        with self.tr.stage("denoise"):
            rng = np.random.default_rng(self.seed + 3)
            t = time.perf_counter()
            clean = [denoise.denoise_sample(x, self.traced_ratio, rng) for x in particles]
            return np.asarray(clean, dtype=np.int64), (len(particles), time.perf_counter() - t)

    def run_pass(self) -> dict[str, tuple[float, float]]:
        """The full pipeline, whose outputs the checks inspect.

        Returns stage -> (work units, seconds).
        """
        out = {}
        self.model, out["train"] = self._train(self.iters)
        self.pooled, self.chain_stats, out["mh"] = self._sample(self.model, range(self.chains))
        self.recon, out["reconstruct"] = self._reconstruct(self.model, self.recon_calls)
        self.final, out["langevin"] = self._langevin(self.langevin_steps)
        self.denoised, out["denoise"] = self._denoise(self.final[: self.points])
        return out

    def round(self, r: int) -> dict[str, tuple[float, float, float]]:
        """Round ``r``: a slice of each stage, on the full pass's trained model.

        Returns stage -> (work units, seconds, reference-kernel seconds), the
        last being the mean of the kernel timed right before and right after
        the stage.
        """
        chains = [(r * self.unit_chains + k) % self.chains for k in range(self.unit_chains)]
        lo = (r * self.unit_points) % self.points
        slices = (
            ("train", lambda: self._train(self.unit_iters)[1]),
            ("mh", lambda: self._sample(self.model, chains)[2]),
            ("reconstruct", lambda: self._reconstruct(self.model, self.unit_recon)[1]),
            ("langevin", lambda: self._langevin(self.unit_steps)[1]),
            ("denoise", lambda: self._denoise(self.final[lo: lo + self.unit_points])[1]),
        )
        out = {}
        before = reference()
        for stage, run in slices:
            units, seconds = run()
            after = reference()
            out[stage] = (units, seconds, (before + after) / 2)
            before = after
        return out

    def common_checks(self, rng) -> list[ck.Check]:
        model_mass = self.model_mass(self.model)
        tv_init = ck.tv(self.model_mass(self.new_model()), self.truth.mass)
        return [
            ck.masses_match("reconstruct_matches_model", self.recon.mass, model_mass),
            ck.tv_lowered("training_lowers_tv_to_truth", tv_init,
                          ck.tv(model_mass, self.truth.mass)),
            ck.within_floor("mh_tv_within_iid_floor", self.pooled, model_mass,
                            self.mh_floor_multiple, rng),
            ck.inside_box("langevin_inside_clamp_box", self.final, *self.box),
            ck.corners_of_cells("denoised_on_cell_corners", self.denoised,
                                self.final[: self.points]),
        ]


class CheckerboardGrid(Pipeline):
    """Criterion 10's pipeline, shortened: 91x91 checkerboard, 10M draws,
    logit table trained with full-neighbourhood ``csm_mc_loss``."""

    name = "checkerboard-grid"
    draws = 10_000_000
    iters, batch, lr = 150, 8192, 5e-3
    chains, steps, burn_in = 32, 600, 100
    mh_floor_multiple = 1.5  # measured 1.28-1.33 over 20 seeds
    particles, langevin_steps, points = 4000, 200, 2000
    unit_iters, unit_chains, unit_recon, unit_steps, unit_points = 60, 2, 1, 80, 1000
    block = 7  # 91 = 13 x 7: the denoising check compares 13x13 blocks

    def setup(self):
        ds = data.gen_2d_toy("checkerboard", self.draws, seed=self.seed)
        grid = graphs.build_structure("grid", ds.space)
        grid.adjacency()  # first, so the reverse-index span holds only its own work
        rev = graphs.build_reverse_index(grid)
        self._finish_setup(grid, ds.ground_truth, ds.samples, rev)
        self.objective = self.tr.fn(
            "objectives.csm_mc_loss",
            lambda m, b, r: obj.csm_mc_loss(m, b, grid, rev, r),
            count=lambda args, out: int(grid.degrees_of(args[1]).sum()
                                        + rev.counts_of(args[1]).sum()),
        )

    def new_model(self):
        return models.LogitTableModel(self.space, seed=self.seed)

    def checks(self) -> list[ck.Check]:
        rng = np.random.default_rng(self.seed + 4)
        states = self.space.all_states()
        side = self.space.dims[0] // self.block
        labels = (states[:, 0] // self.block) * side + states[:, 1] // self.block
        blocks = side * side
        return [
            ck.mc_matches_exact("csm_mc_matches_jcsm_exact", self.model,
                                self.samples[: self.batch], self.structure, self.reverse_index),
            *self.common_checks(rng),
            ck.within_floor("denoised_blocks_within_iid_floor",
                            labels[self.space.indices_of(self.denoised)],
                            ck.coarsen(self.truth.mass, labels, blocks), 1.5, rng),
        ]


class BinaryTabular(Pipeline):
    """The tabular setting: a masked autoregressive model on D-bit rows
    drawn from an Ising-like table, trained with ``csm_structured_loss``."""

    name = "binary-tabular"
    bits = 12  # the corner posterior enumerates 2^D corners, capped at D = 12
    rows = 50_000
    hidden = (64, 64)
    # at lr 1e-2 the minibatch objective runs far below zero on some seeds
    # and training can end further from the truth than it started; 3e-3
    # lowered TV on 161 of 161 seeds (trained / initial TV at most 0.91)
    iters, batch, lr = 60, 512, 3e-3
    chains, steps, burn_in = 4, 3000, 300
    mh_floor_multiple = 2.0  # measured at most 1.64 over 41 seeds: bit flips mix slowly
    particles, langevin_steps, points = 8, 10, 8
    unit_iters, unit_chains, unit_recon, unit_steps, unit_points = 10, 1, 1, 2, 8

    def setup(self):
        rng = np.random.default_rng(self.seed)
        d = self.bits
        spins = 2.0 * ((np.arange(2**d)[:, None] >> np.arange(d)[::-1]) & 1) - 1.0
        coupling = np.triu(rng.normal(0.0, 0.25, (d, d)), 1)
        field = rng.normal(0.0, 0.25, d)
        energy = np.einsum("ni,ij,nj->n", spins, coupling, spins) + spins @ field
        space = graphs.DiscreteSpace((2,) * d)
        truth = exact.TabularDistribution(space, np.exp(energy - energy.max()), normalize=True)
        path = os.path.join(self.out_dir, f"{self.name}-seed{self.seed}.csv")
        np.savetxt(path, truth.sample(self.rows, rng), fmt="%d", delimiter=",")
        try:
            ds = data.load_tabular_csv(path)
        finally:
            os.remove(path)
        grid = graphs.build_structure("grid", ds.space)
        self._finish_setup(grid, truth, ds.samples)
        self.objective = self.tr.fn(
            "objectives.csm_structured_loss",
            lambda m, b, r: obj.csm_structured_loss(m, b, grid, r),
            count=lambda args, out: int((grid.degrees_of(args[1]) > 0).sum()
                                        + out.meta["j2_edges"]),
        )

    def new_model(self):
        return models.MaskedARModel(self.bits, hidden=self.hidden, seed=self.seed)

    def model_mass(self, model) -> np.ndarray:
        return np.exp(model.log_mass_t(self.space.all_states()).data)

    def checks(self) -> list[ck.Check]:
        rng = np.random.default_rng(self.seed + 4)
        rev = graphs.build_reverse_index(self.structure)
        indptr, _ = self.structure.adjacency()
        return [
            ck.sums_to_one("model_mass_sums_to_one", self.model_mass(self.model)),
            ck.all_equal("adjacency_degree_is_d", np.diff(indptr), self.bits),
            ck.all_equal("reverse_index_entries_are_d", np.diff(rev.indptr), self.bits),
            *self.common_checks(rng),
        ]


class Denoise1D(Pipeline):
    """Criterion 8's pipeline on the 16-category toy, behind a small
    ``csm_mc_loss`` training run on the cycle."""

    name = "denoise-1d"
    draws = 20_000
    iters, batch, lr = 400, 256, 5e-2
    chains, steps, burn_in = 4, 5000, 500
    mh_floor_multiple = 3.0  # measured 0.73-2.08 over 80 seeds (16 states: a noisy TV)
    recon_calls = 100
    particles, langevin_steps, points = 20_000, 300, 20_000
    unit_iters, unit_chains, unit_recon, unit_steps, unit_points = 300, 1, 10, 30, 2000

    def setup(self):
        ds = data.gen_1d_toy(self.draws, seed=self.seed)
        cycle = graphs.build_structure("cycle", ds.space)
        cycle.adjacency()  # first, so the reverse-index span holds only its own work
        rev = graphs.build_reverse_index(cycle)
        self._finish_setup(cycle, ds.ground_truth, ds.samples, rev)
        self.objective = self.tr.fn(
            "objectives.csm_mc_loss",
            lambda m, b, r: obj.csm_mc_loss(m, b, cycle, rev, r),
            count=lambda args, out: int(cycle.degrees_of(args[1]).sum()
                                        + rev.counts_of(args[1]).sum()),
        )

    def new_model(self):
        return models.LogitTableModel(self.space, seed=self.seed)

    def checks(self) -> list[ck.Check]:
        rng = np.random.default_rng(self.seed + 4)
        denoised = ck.histogram(self.space.indices_of(self.denoised), self.space.total_states)
        return [
            ck.stein_matches_central_difference(
                "stein_score_matches_central_difference", self.truth.mass,
                lambda x: denoise.recover_stein_score(np.array([x]), self.ratio)[0], rng),
            ck.below("denoised_tv_vs_truth", ck.tv(denoised, self.truth.mass), 0.03),
            *self.common_checks(rng),
        ]


WORKLOADS = {w.name: w for w in (CheckerboardGrid, BinaryTabular, Denoise1D)}
