"""Objectives: hand-computed values, unbiasedness, equivalence, baselines."""

import dataclasses

import numpy as np
import pytest

from csm import autodiff as ad
from csm import objectives as obj
from csm.autodiff import Tensor, gradient_check
from csm.exact import TabularDistribution, kl_and_tv
from csm.graphs import DiscreteSpace, build_reverse_index, build_structure, csr_rows
from csm.models import LogitTableModel, MaskedARModel, ScoreModel, ScoreNetModel, fit


class _FixedScore(ScoreModel):
    """Stub score model returning preset entries as tape constants (no parameters)."""

    params = {}

    def __init__(self, table):
        self.table = table  # state tuple -> vector

    def score_entries_t(self, structure, states, positions, dst=None):
        states = np.asarray(states)
        if states.ndim == 1:  # flat indices
            states = structure.space.states_of(states)
        return Tensor(np.array(
            [self.table[tuple(s)][p] for s, p in zip(states, positions)],
            dtype=np.float64,
        ))


class TestExactLosses:
    def test_perfect_model_gives_zero(self):
        rng = np.random.default_rng(0)
        space = DiscreteSpace((8,))
        p = TabularDistribution.random_positive(space, rng)
        cycle = build_structure("cycle", space)
        oracle = LogitTableModel.from_distribution(p)
        assert obj.csm_loss_exact(oracle, p, cycle).value == pytest.approx(0.0, abs=1e-18)

    def test_zero_model_hand_value(self):
        """0.25 * 2^2 + 0.75 * (2/3)^2 = 4/3 for the two-state example."""
        space = DiscreteSpace((2,))
        p = TabularDistribution(space, np.array([0.25, 0.75]))
        comp = build_structure("complete", space)
        zero = LogitTableModel(space)
        assert obj.csm_loss_exact(zero, p, comp).value == pytest.approx(4.0 / 3.0)
        out = obj.jcsm_exact(zero, p, comp)
        assert out.value == pytest.approx(0.0)
        assert out.meta["j1"] == pytest.approx(0.0)
        assert out.meta["j2"] == pytest.approx(0.0)

    def test_offset_constant_across_parameters(self):
        """L and J differ by the same constant at every parameter value."""
        rng = np.random.default_rng(1)
        space = DiscreteSpace((12,))
        p = TabularDistribution.random_positive(space, rng)
        star = build_structure("star", space)
        offsets = []
        for _ in range(10):
            m = LogitTableModel(space)
            m.params["logits"].data = rng.standard_normal(12)
            offsets.append(
                obj.csm_loss_exact(m, p, star).value - obj.jcsm_exact(m, p, star).value
            )
        assert max(offsets) - min(offsets) < 1e-8

    def test_consistency_training_recovers_distribution(self):
        """Minimizing the enumerated objective recovers the data distribution."""
        rng = np.random.default_rng(2)
        for kind, dims in (("cycle", (16,)), ("grid", (6, 6))):
            space = DiscreteSpace(dims)
            p = TabularDistribution.random_positive(space, rng)
            structure = build_structure(kind, space)
            model = LogitTableModel(space, seed=0)
            dummy = p.sample(4, rng)
            objective = lambda m, b, r: obj.jcsm_exact(m, p, structure)
            for lr, iters in ((0.1, 1500), (0.02, 1500), (0.004, 1500)):
                fit(model, objective, dummy, iterations=iters, batch_size=1, lr=lr, seed=0)
            _, tv = kl_and_tv(model.distribution(), p)
            assert tv < 1e-3, f"{kind}: tv={tv}"


class TestHandValuesMC:
    def test_j1_single_draws(self):
        """Alg-style contributions: deg * (c^2 + 2c) for the drawn slot."""
        space = DiscreteSpace((3,))
        comp = build_structure("complete", space)  # degree 2 everywhere
        table = {(0,): [0.5, -0.2], (1,): [0.5, -0.2], (2,): [0.5, -0.2]}
        model = _FixedScore(table)
        batch = np.array([[0]])

        class PickSlot:
            def __init__(self, k):
                self.k = k

            def integers(self, lo, hi, size=None):
                out = np.full_like(np.asarray(hi), self.k) if size is None else np.full(size, self.k)
                return out

        assert obj.estimate_j1(model, batch, comp, PickSlot(0)).value == pytest.approx(2.5)
        assert obj.estimate_j1(model, batch, comp, PickSlot(1)).value == pytest.approx(-0.72)

    def test_j2_reverse_draw(self):
        """2 * |reverse set| * entry for star hubs: 5 sources, entry 0.4."""
        space = DiscreteSpace((6,))
        star = build_structure("star", space)
        rev = build_reverse_index(star)
        table = {(i,): [0.4] for i in range(1, 6)}
        table[(0,)] = []
        model = _FixedScore(table)
        batch = np.array([[0]])  # the hub: |N^-1| = 5
        rng = np.random.default_rng(0)
        assert obj.estimate_j2(model, batch, star, rev, rng).value == pytest.approx(2 * 5 * 0.4)

    def test_j2_structured_cycle_hand_value(self):
        """Batch {x2} on a 4-cycle reads the predecessor's only entry."""
        space = DiscreteSpace((4,))
        cycle = build_structure("cycle", space)
        table = {(i,): [0.0] for i in range(4)}
        table[(1,)] = [0.3]
        model = _FixedScore(table)
        out = obj.estimate_j2_structured(model, np.array([[2]]), cycle, np.random.default_rng(0))
        assert out.value == pytest.approx(0.6)

    def test_j2_structured_chain_first_state(self):
        space = DiscreteSpace((5,))
        chain = build_structure("chain", space)
        table = {(i,): [1.0] for i in range(4)}
        table[(4,)] = []
        model = _FixedScore(table)
        out = obj.estimate_j2_structured(model, np.array([[0]]), chain, np.random.default_rng(0))
        assert out.value == pytest.approx(0.0)
        assert out.meta["j2_skipped_empty"] == 1

    def test_star_hub_skipped_in_j1(self):
        space = DiscreteSpace((6,))
        star = build_structure("star", space)
        model = _FixedScore({(i,): ([0.2] if i else []) for i in range(6)})
        out = obj.estimate_j1(model, np.array([[0]]), star, np.random.default_rng(0))
        assert out.value == 0.0
        assert out.meta["j1_skipped_empty"] == 1

    def test_structured_rejects_star(self):
        star = build_structure("star", DiscreteSpace((6,)))
        with pytest.raises(ValueError):
            obj.estimate_j2_structured(
                _FixedScore({}), np.array([[1]]), star, np.random.default_rng(0)
            )


class TestUnbiasedness:
    @pytest.mark.parametrize("kind,dims,boundary", [
        ("chain", (30,), "drop"),
        ("cycle", (30,), "drop"),
        ("star", (20,), "drop"),
        ("grid", (2, 2, 2, 2), "drop"),
        ("grid", (7, 7), "wrap"),
    ])
    def test_estimators_match_enumeration(self, kind, dims, boundary):
        """Estimator means sit within 3 exact standard errors of the truth."""
        from csm.checks import _enumerated_j_stats

        rng = np.random.default_rng(17)
        structure = build_structure(kind, DiscreteSpace(dims), boundary=boundary)
        space = structure.space
        p = TabularDistribution.random_positive(space, rng)
        model = LogitTableModel(space)
        model.params["logits"].data = 0.6 * rng.standard_normal(space.total_states)
        rev = build_reverse_index(structure)
        j1, var1, j2, var2, var2s = _enumerated_j_stats(model, p, structure)
        draws = 60_000
        batch = p.sample(draws, rng)
        est1 = obj.estimate_j1(model, batch, structure, rng).value
        assert abs(est1 - j1) < 3 * np.sqrt(var1 / draws)
        est2 = obj.estimate_j2(model, batch, structure, rev, rng).value
        assert abs(est2 - j2) < 3 * np.sqrt(var2 / draws)
        if var2s is not None:
            est2s = obj.estimate_j2_structured(model, batch, structure, rng).value
            assert abs(est2s - j2) < 3 * np.sqrt(var2s / draws)

    def test_structured_and_reverse_index_agree_on_cycle(self):
        """The two J2 estimators share their mean on a 91-state cycle."""
        rng = np.random.default_rng(23)
        structure = build_structure("cycle", DiscreteSpace((91,)))
        p = TabularDistribution.random_positive(structure.space, rng)
        model = LogitTableModel(structure.space)
        model.params["logits"].data = 0.5 * rng.standard_normal(91)
        rev = build_reverse_index(structure)
        batch = p.sample(60_000, rng)
        a = obj.estimate_j2(model, batch, structure, rev, rng).value
        b = obj.estimate_j2_structured(model, batch, structure, rng).value
        assert a == pytest.approx(b, abs=1e-12)  # both deterministic given the batch


# A tests-only scalar reference of the single-draw estimator terms as separate
# tape expressions, with the same draws: one neighbor slot per nonempty batch
# state, then (grids only) one dimension per batch state. Its score entries and
# losses are the whole-tape forms the objectives replaced, which seed the
# backward pass at the entries instead.


def _ref_entries_t(model, structure, src, pos):
    """Score entries as a tape chain: the score net's forward pass, or a
    density model's exp(log q(dst) - log q(src)) - 1 from two log-mass passes."""
    src = np.asarray(src, dtype=np.int64)
    states = structure.space.states_of(src) if src.ndim == 1 else src
    if isinstance(model, ScoreNetModel):
        return model.score_entries_t(structure, states, pos)
    dst = structure.neighbor_states_at(states, pos)
    delta = ad.sub(model.log_mass_unnorm_t(dst), model.log_mass_unnorm_t(states))
    return ad.sub(ad.texp(delta), 1.0)


def _ref_weighted_j(model, structure, selections):
    """The J1 - J2 kernel with its loss on the tape."""
    src, pos, alpha, beta = map(np.concatenate, zip(*selections))
    c = _ref_entries_t(model, structure, src, pos)
    return ad.tsum(ad.mul(ad.add(ad.mul(c, alpha), 2.0 * (alpha - beta)), c))


def _ref_mc_selection(batch, structure, rev):
    """csm_mc_loss's edges from (row, offset) pairs: the reverse-index entries
    of the batch states, then their out-edges into states outside the batch."""
    b = batch.shape[0]
    indptr, indices = structure.adjacency()
    w = np.bincount(structure.space.indices_of(batch), minlength=structure.space.total_states)
    live, mass = np.flatnonzero(w), w / b
    dst, k = csr_rows(rev.indptr, live)
    sel = rev.indptr[dst] + k
    src, pos = csr_rows(indptr, live)
    keep = np.flatnonzero(w[indices[indptr[src] + pos]] == 0)
    src, pos, r_src = src[keep], pos[keep], rev.src[sel]
    in_edges = (r_src, rev.pos[sel], mass[r_src], mass[dst])
    out_edges = (src, pos, mass[src], np.zeros(src.size))
    meta = {"batch": b, "j1_skipped_empty": int(w[live][indptr[live + 1] == indptr[live]].sum()),
            "j2_skipped_empty": int(w[live][rev.indptr[live + 1] == rev.indptr[live]].sum())}
    return [in_edges, out_edges], meta


def _ref_csm_loss_exact(model, p, structure):
    src, pos, dst = structure.edges()
    keep = p.mass[src] > 0
    src, pos, dst = src[keep], pos[keep], dst[keep]
    target = p.mass[dst] / p.mass[src] - 1.0
    entries = _ref_entries_t(model, structure, src, pos)
    return ad.tsum(ad.mul(ad.square(ad.sub(entries, target)), p.mass[src]))


def _ref_dcsm_loss(model, batch, kernel, structure, rng):
    noisy = kernel.sample(batch, rng)
    rows, pos, dst = structure.all_neighbors_of(noisy)
    target = kernel.score_targets(batch[rows], noisy[rows], dst)
    entries = _ref_entries_t(model, structure, noisy[rows], pos)
    return ad.mul(ad.tsum(ad.square(ad.sub(entries, target))), 1.0 / batch.shape[0])


def _ref_dcsm_loss_exact(model, p, kernel, structure):
    """Every (clean, noisy) pair as its own tape entry, tiled by a gather."""
    states = structure.space.all_states()
    n = states.shape[0]
    q = np.ones((n, n))
    for d in range(structure.space.ndim):
        q *= kernel.row(d)[np.ix_(states[:, d], states[:, d])]
    src, pos, dst = structure.edges()
    entries = _ref_entries_t(model, structure, src, pos)
    weights = (p.mass[:, None] * q[:, src]).reshape(-1)
    targets = (q[:, dst] / q[:, src] - 1.0).reshape(-1)
    tiled = ad.gather(entries, np.tile(np.arange(src.size), n))
    return ad.tsum(ad.mul(ad.square(ad.sub(tiled, targets)), weights))


def _ref_j1(model, batch, structure, rng):
    degs = structure.degrees_of(batch)
    if not degs.any():
        return Tensor(0.0)
    rows = np.flatnonzero(degs > 0)
    pos = rng.integers(0, degs[rows])
    c = _ref_entries_t(model, structure, batch[rows], pos)
    per = ad.mul(ad.add(ad.square(c), ad.mul(c, 2.0)), degs[rows].astype(np.float64))
    return ad.mul(ad.tsum(per), 1.0 / len(batch))


def _ref_j2(model, batch, structure, rev, rng):
    space = structure.space
    flat = [space.index_of(x) for x in batch]
    counts = np.array([rev.indptr[i + 1] - rev.indptr[i] for i in flat])
    if not counts.any():
        return Tensor(0.0)
    rows = np.flatnonzero(counts > 0)
    k = rng.integers(0, counts[rows])
    sel = [rev.indptr[flat[r]] + j for r, j in zip(rows, k)]
    c = _ref_entries_t(model, structure, rev.src[sel], rev.pos[sel])
    return ad.mul(ad.tsum(ad.mul(c, 2.0 * counts[rows])), 1.0 / len(batch))


def _ref_j2_structured(model, batch, structure, rng):
    space, b = structure.space, len(batch)
    if structure.kind != "grid":
        n = space.total_states
        flat = [space.index_of(x) for x in batch]
        pred = [(i - 1) % n for i in flat if structure.kind == "cycle" or i > 0]
        if not pred:
            return Tensor(0.0)
        c = _ref_entries_t(model, structure, np.array(pred), np.zeros(len(pred), dtype=np.int64))
        return ad.mul(ad.tsum(ad.mul(c, 2.0)), 1.0 / b)
    d = rng.integers(0, space.ndim, size=b)
    wrap = structure.boundary == "wrap"
    indptr, indices = structure.adjacency()
    blocks = {"flip": [], "pred": [], "succ": []}
    for x, dd in zip(batch.tolist(), d.tolist()):
        n, v = space.dims[dd], x[dd]
        moves = {"flip": [1 - v] if n == 2 else [],
                 "pred": [(v - 1) % n] if n > 2 and (wrap or v > 0) else [],
                 "succ": [(v + 1) % n] if n > 2 and (wrap or v + 1 < n) else []}
        for block, values in moves.items():
            for value in values:
                y = list(x)
                y[dd] = value
                row = indices[indptr[space.index_of(y)] : indptr[space.index_of(y) + 1]]
                blocks[block].append((y, row.tolist().index(space.index_of(x))))
    edges = blocks["flip"] + blocks["pred"] + blocks["succ"]
    src = np.array([y for y, _ in edges], dtype=np.int64)
    c = _ref_entries_t(model, structure, src, np.array([p for _, p in edges]))
    return ad.mul(ad.tsum(ad.mul(c, 2.0 * space.ndim)), 1.0 / b)


DIFFERENTIAL_CASES = [
    ("chain", (9,), "drop"), ("cycle", (9,), "drop"), ("chain", (3, 4), "drop"),
    ("cycle", (2, 3), "drop"), ("grid", (5, 4), "drop"), ("grid", (5, 4), "wrap"),
    ("grid", (2, 3, 4), "drop"), ("grid", (2, 3, 4), "wrap"), ("grid", (3, 2, 5), "drop"),
    ("grid", (2, 2, 2, 2), "drop"), ("grid", (3,), "drop"),
]


class TestDifferential:
    """Estimators against the scalar reference: values, gradients and the
    generator state after the call."""

    @staticmethod
    def models(structure, rng):
        space = structure.space
        table = LogitTableModel(space)
        table.params["logits"].data = rng.standard_normal(space.total_states)
        out = [table]
        if structure.uniform_degree():
            out.append(ScoreNetModel(space, degree=structure.uniform_degree(), hidden=(5,), seed=4))
        if all(n == 2 for n in space.dims):
            out.append(MaskedARModel(space.ndim, hidden=(5,), seed=5))
        return out

    @staticmethod
    def assert_same(got, ref_model, ref_loss, rng_got, rng_ref):
        ref = obj._finalize(ref_model, ref_loss, {}, float(ref_loss.data), np.ones(()))
        assert got.value == pytest.approx(ref.value, rel=1e-12, abs=1e-300)
        for name, grad in ref.grads.items():
            scale = max(np.abs(grad).max(), 1e-300)
            assert np.abs(got.grads[name] - grad).max() <= 1e-12 * scale, name
        assert rng_got.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("kind,dims,boundary", DIFFERENTIAL_CASES)
    def test_matches_scalar_reference(self, kind, dims, boundary):
        structure = build_structure(kind, DiscreteSpace(dims), boundary=boundary)
        space = structure.space
        rev = build_reverse_index(structure)
        rng = np.random.default_rng(41)
        flat = np.concatenate([[0], rng.integers(0, space.total_states, size=30)])
        batch = space.states_of(flat)
        calls = {
            "j1": (lambda m, r: obj.estimate_j1(m, batch, structure, r),
                   lambda m, r: _ref_j1(m, batch, structure, r)),
            "j2": (lambda m, r: obj.estimate_j2(m, batch, structure, rev, r),
                   lambda m, r: _ref_j2(m, batch, structure, rev, r)),
            "j2_structured": (lambda m, r: obj.estimate_j2_structured(m, batch, structure, r),
                              lambda m, r: _ref_j2_structured(m, batch, structure, r)),
            "structured": (lambda m, r: obj.csm_structured_loss(m, batch, structure, r),
                           lambda m, r: ad.sub(_ref_j1(m, batch, structure, r),
                                               _ref_j2_structured(m, batch, structure, r))),
        }
        for model in self.models(structure, rng):
            for name, (new, ref) in calls.items():
                rng_got, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
                got = new(model, rng_got)
                assert got.meta["edges"] > 0, name
                self.assert_same(got, model, ref(model, rng_ref), rng_got, rng_ref)

    @pytest.mark.parametrize("kind,dims,boundary", [
        ("cycle", (6,), "drop"), ("grid", (4, 3), "drop"), ("grid", (3, 4), "wrap"),
        ("grid", (2, 2, 2), "drop"),
    ])
    def test_csm_objectives_match_tape_reference(self, kind, dims, boundary):
        """Every objective that seeds the backward pass at the score entries
        against its whole-tape form, on each model kind the structure admits."""
        structure = build_structure(kind, DiscreteSpace(dims), boundary=boundary)
        space = structure.space
        rev = build_reverse_index(structure)
        rng = np.random.default_rng(43)
        p = TabularDistribution.random_positive(space, rng)
        kernel = obj.NoiseKernel(space, w=0.8)
        batch = space.states_of(rng.integers(0, space.total_states, size=30))
        src, pos, dst = structure.edges()
        calls = {
            "jcsm_exact": (lambda m, r: obj.jcsm_exact(m, p, structure),
                           lambda m, r: _ref_weighted_j(m, structure, [(src, pos, p.mass[src], p.mass[dst])])),
            "csm_mc": (lambda m, r: obj.csm_mc_loss(m, batch, structure, rev, r),
                       lambda m, r: _ref_weighted_j(m, structure, _ref_mc_selection(batch, structure, rev)[0])),
            "csm_exact": (lambda m, r: obj.csm_loss_exact(m, p, structure),
                          lambda m, r: _ref_csm_loss_exact(m, p, structure)),
            "dcsm": (lambda m, r: obj.dcsm_loss(m, batch, kernel, structure, r),
                     lambda m, r: _ref_dcsm_loss(m, batch, kernel, structure, r)),
            "dcsm_exact": (lambda m, r: obj.dcsm_loss_exact(m, p, kernel, structure),
                           lambda m, r: _ref_dcsm_loss_exact(m, p, kernel, structure)),
        }
        for model in self.models(structure, rng):
            for name, (new, ref) in calls.items():
                rng_got, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
                self.assert_same(new(model, rng_got), model, ref(model, rng_ref), rng_got, rng_ref)

    def test_squared_error_objectives_without_entries_are_zero(self):
        """No score entries to match: value 0 and zero gradients, from a batch
        of the last chain state (no out-edges) or a structure with no edges."""
        space = DiscreteSpace((5,))
        chain, bare = build_structure("chain", space), build_structure("explicit", space, explicit_edges={})
        p = TabularDistribution.random_positive(space, np.random.default_rng(44))
        kernel = obj.NoiseKernel(space, w=1.0 - 1e-12)
        model = LogitTableModel(space)
        model.params["logits"].data = np.arange(5.0)
        outs = [obj.dcsm_loss(model, np.full((6, 1), 4), kernel, chain, np.random.default_rng(0)),
                obj.csm_loss_exact(model, p, bare), obj.dcsm_loss_exact(model, p, kernel, bare)]
        assert outs[0].meta["neighbor_evals"] == 0
        for out in outs:
            assert out.value == 0.0
            np.testing.assert_array_equal(out.grads["logits"], np.zeros(5))


def _explicit_two_regular():
    """Directed explicit graph over 8 states, two out-edges per state."""
    space = DiscreteSpace((8,))
    edges = {(i,): [((i + 1) % 8,), ((i + 3) % 8,)] for i in range(8)}
    return build_structure("explicit", space, explicit_edges=edges)


HISTOGRAM_CASES = {
    "chain": lambda: build_structure("chain", DiscreteSpace((10,))),
    "cycle": lambda: build_structure("cycle", DiscreteSpace((10,))),
    "star": lambda: build_structure("star", DiscreteSpace((9,))),
    "complete": lambda: build_structure("complete", DiscreteSpace((7,))),
    "explicit": _explicit_two_regular,
    "grid_drop": lambda: build_structure("grid", DiscreteSpace((5, 4))),
    "grid_wrap": lambda: build_structure("grid", DiscreteSpace((5, 4)), boundary="wrap"),
    "grid_binary": lambda: build_structure("grid", DiscreteSpace((2, 2, 2, 2))),
}


def _sparse_batch(space, rng):
    """Repeated draws from a third of the states, plus state 0 twice: the
    batch repeats states and holds states whose in-neighbours have no mass."""
    keep = rng.choice(space.total_states, size=max(2, space.total_states // 3), replace=False)
    flat = np.concatenate([rng.choice(keep, size=25), [0, 0]])
    return space.states_of(flat)


def _assert_matches_histogram(model, batch, structure):
    rev = build_reverse_index(structure)
    mc = obj.csm_mc_loss(model, batch, structure, rev, np.random.default_rng(0))
    hist = TabularDistribution.from_samples(structure.space, batch)
    exact = obj.jcsm_exact(model, hist, structure)
    assert abs(mc.value - exact.value) <= 1e-10
    for name, grad in mc.grads.items():
        assert np.abs(grad - exact.grads[name]).max() <= 1e-10, name
    return mc


class TestHistogramKernel:
    """csm_mc_loss is jcsm_exact at the batch histogram, over touched edges only."""

    @pytest.mark.parametrize("case", sorted(HISTOGRAM_CASES))
    def test_logit_table_matches_jcsm_exact(self, case):
        structure = HISTOGRAM_CASES[case]()
        rng = np.random.default_rng(31)
        model = LogitTableModel(structure.space)
        model.params["logits"].data = rng.standard_normal(structure.space.total_states)
        batch = _sparse_batch(structure.space, rng)
        mc = _assert_matches_histogram(model, batch, structure)
        # the batch histogram leaves some in-neighbours of batch states empty
        w = np.bincount(structure.space.indices_of(batch), minlength=structure.space.total_states)
        rev = build_reverse_index(structure)
        dst = np.repeat(np.arange(w.size), np.diff(rev.indptr))
        assert np.any((w[dst] > 0) & (w[rev.src] == 0))
        # exactly the edges with mass at their source or destination
        indptr, indices = structure.adjacency()
        src = np.repeat(np.arange(w.size), np.diff(indptr))
        assert mc.meta["edges"] == int(np.count_nonzero((w[src] > 0) | (w[indices] > 0)))

    @pytest.mark.parametrize("case", ["cycle", "complete", "explicit", "grid_wrap", "grid_binary"])
    def test_score_net_matches_jcsm_exact(self, case):
        structure = HISTOGRAM_CASES[case]()
        net = ScoreNetModel(structure.space, degree=structure.uniform_degree(), hidden=(6,), seed=3)
        _assert_matches_histogram(net, _sparse_batch(structure.space, np.random.default_rng(32)), structure)

    @pytest.mark.parametrize("case", sorted(HISTOGRAM_CASES))
    def test_selects_the_reference_edges(self, case):
        """The same edges in the same order, and the same counts, as the
        selection built from (row, offset) pairs."""

        class Recorder(LogitTableModel):
            def score_entries_t(self, structure, states, positions, dst=None):
                self.seen = (np.asarray(states).copy(), np.asarray(positions).copy(), dst.copy())
                return super().score_entries_t(structure, states, positions, dst)

        structure = HISTOGRAM_CASES[case]()
        space, rev = structure.space, build_reverse_index(structure)
        rng = np.random.default_rng(34)
        for batch in (_sparse_batch(space, rng), space.all_states(), space.states_of([0, 0, 1])):
            model = Recorder(space)
            out = obj.csm_mc_loss(model, batch, structure, rev, None)
            selections, meta = _ref_mc_selection(batch, structure, rev)
            ref_src, ref_pos, _, _ = map(np.concatenate, zip(*selections))
            np.testing.assert_array_equal(model.seen[0], ref_src)
            np.testing.assert_array_equal(model.seen[1], ref_pos)
            np.testing.assert_array_equal(model.seen[2], structure.neighbor_indices_at(ref_src, ref_pos))
            assert out.meta == {**meta, "edges": ref_src.size, "j1": out.meta["j1"], "j2": out.meta["j2"]}

    def test_in_edges_from_outside_the_batch_come_from_the_reverse_index(self):
        """A reverse index filed under the wrong destinations changes the loss."""
        structure = HISTOGRAM_CASES["grid_drop"]()
        model = LogitTableModel(structure.space)
        model.params["logits"].data = np.random.default_rng(33).standard_normal(20)
        states = structure.space.all_states()
        batch = np.concatenate([states[3:], states[5:9]])  # states 0-2 hold no mass
        rev = build_reverse_index(structure)
        shuffled = dataclasses.replace(rev, src=rev.src[::-1].copy(), pos=rev.pos[::-1].copy())
        good = obj.csm_mc_loss(model, batch, structure, rev, None).value
        assert abs(obj.csm_mc_loss(model, batch, structure, shuffled, None).value - good) > 1e-3

    def test_empty_neighbourhoods_counted(self):
        """The star hub has no out-edges; a leaf has no in-edges."""
        structure = HISTOGRAM_CASES["star"]()
        rev = build_reverse_index(structure)
        out = obj.csm_mc_loss(LogitTableModel(structure.space), np.array([[0], [0], [3]]),
                              structure, rev, None)
        assert out.meta["j1_skipped_empty"] == 2
        assert out.meta["j2_skipped_empty"] == 1


class TestNoiseKernel:
    def test_rows_sum_to_one(self):
        kernel = obj.NoiseKernel(DiscreteSpace((91, 91)), w=0.9)
        for d in range(2):
            np.testing.assert_allclose(kernel.row(d).sum(axis=1), 1.0, atol=1e-12)

    def test_off_diagonal_value(self):
        kernel = obj.NoiseKernel(DiscreteSpace((91,)), w=0.9)
        assert kernel.row(0)[3, 7] == pytest.approx(0.1 / 90.0)

    def test_near_identity_limit(self):
        kernel = obj.NoiseKernel(DiscreteSpace((91,)), w=1 - 8e-5)
        row = kernel.row(0)
        assert row[0, 1] < 1e-6

    def test_w_out_of_range(self):
        with pytest.raises(ValueError):
            obj.NoiseKernel(DiscreteSpace((4,)), w=1.0)

    def test_spread_value(self):
        kernel = obj.NoiseKernel(space=DiscreteSpace((91, 91)), w=0.9)
        assert kernel.spread(0) == pytest.approx(0.1 / 90.0)

    def test_rejects_out_of_range(self):
        for w in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                obj.NoiseKernel(space=DiscreteSpace((4,)), w=w)

    def test_sampler_matches_rows(self):
        rng = np.random.default_rng(5)
        kernel = obj.NoiseKernel(DiscreteSpace((5,)), w=0.7)
        states = np.full((200_000, 1), 2)
        noisy = kernel.sample(states, rng)
        freq = np.bincount(noisy[:, 0], minlength=5) / 200_000
        np.testing.assert_allclose(freq, kernel.row(0)[2], atol=5e-3)


class TestDCSM:
    def test_target_entry_hand_value(self):
        """Stay-vs-move ratio for w=0.9 over 91 categories."""
        kernel = obj.NoiseKernel(DiscreteSpace((91,)), w=0.9)
        clean = np.array([[40]])
        at = np.array([[40]])  # noisy == clean
        to = np.array([[41]])  # same-dimension move
        target = kernel.score_targets(clean, at, to)[0]
        assert target == pytest.approx((0.1 / 90.0 - 0.9) / 0.9, abs=1e-9)
        assert target == pytest.approx(-0.998765, abs=1e-6)

    def test_perfect_conditional_model_gives_zero(self):
        space = DiscreteSpace((6,))
        cycle = build_structure("cycle", space)
        kernel = obj.NoiseKernel(space, w=0.8)
        rng = np.random.default_rng(0)
        batch = rng.integers(0, 6, size=(40, 1))

        class KernelScore(ScoreModel):
            params = {}
            clean = None

            def score_entries_t(self, structure, states, positions):
                dst = structure.neighbor_states_at(states, positions)
                return Tensor(kernel.score_targets(self.clean, states, dst))

        model = KernelScore()
        # mirror the objective's internal corruption draw
        probe_rng = np.random.default_rng(99)
        noisy = kernel.sample(batch, probe_rng)
        rows, pos, dst = cycle.all_neighbors_of(noisy)
        model.clean = batch[rows]
        entries = model.score_entries(cycle, noisy[rows], pos)
        targets = kernel.score_targets(batch[rows], noisy[rows], dst)
        np.testing.assert_allclose(entries, targets, atol=1e-15)

    def test_exact_dcsm_minimizer_is_perturbed_score(self):
        """Optimizing the enumerated objective lands on the noisy score."""
        rng = np.random.default_rng(4)
        space = DiscreteSpace((2,))
        comp = build_structure("complete", space)
        p = TabularDistribution(space, np.array([0.3, 0.7]))
        kernel = obj.NoiseKernel(space, w=0.9)
        model = LogitTableModel(space, seed=0)
        objective = lambda m, b, r: obj.dcsm_loss_exact(m, p, kernel, comp)
        for lr, iters in ((0.1, 1500), (0.01, 1500)):
            fit(model, objective, p.sample(4, rng), iterations=iters, batch_size=1, lr=lr, seed=0)
        q = kernel.row(0)
        perturbed = LogitTableModel.from_distribution(
            TabularDistribution(space, q.T @ p.mass, normalize=True)
        )
        for i in range(2):
            np.testing.assert_allclose(
                model.score_vector(comp, (i,)), perturbed.score_vector(comp, (i,)), atol=1e-3
            )

    def test_mc_dcsm_runs_and_is_finite(self):
        rng = np.random.default_rng(6)
        space = DiscreteSpace((8, 8))
        grid = build_structure("grid", space)
        kernel = obj.NoiseKernel(space, w=0.9)
        model = LogitTableModel(space, seed=0)
        batch = rng.integers(0, 8, size=(64, 2))
        out = obj.dcsm_loss(model, batch, kernel, grid, rng)
        assert np.isfinite(out.value)
        assert out.meta["neighbor_evals"] > 0


class TestConditionalBaselines:
    def _binary_model(self, p1: float):
        space = DiscreteSpace((2,))
        model = LogitTableModel(space)
        model.params["logits"].data = np.array([np.log(1 - p1), np.log(p1)])
        return model

    def test_ratio_fixed_hand_value(self):
        """(1 - 0.7)^2 + 0.3^2 = 0.18 for a lone binary dimension."""
        model = self._binary_model(0.7)
        out = obj.ratio_matching_loss(model, np.array([[1]]), "fixed")
        assert out.value == pytest.approx(0.18, abs=1e-12)

    def test_ratio_fixed_perfect_conditionals(self):
        model = self._binary_model(1 - 1e-12)
        out = obj.ratio_matching_loss(model, np.array([[1]]), "fixed")
        assert out.value == pytest.approx(0.0, abs=1e-9)

    def test_ratio_original_minimizer_is_uniform(self):
        """The degenerate form is minimized by uniform conditionals."""
        qs = np.linspace(0.05, 0.95, 19)
        losses = [(1 - q) ** 2 + (1 - (1 - q)) ** 2 for q in qs]
        assert qs[int(np.argmin(losses))] == pytest.approx(0.5)
        for q in (0.3, 0.5, 0.8):
            model = self._binary_model(q)
            val = obj.ratio_matching_loss(model, np.array([[1]]), "original").value
            assert val == pytest.approx((1 - q) ** 2 + q**2, abs=1e-12)

    def test_marginal_fixed_hand_values(self):
        model = self._binary_model(0.5)
        out = obj.marginalization_loss(model, np.array([[1]]), "fixed")
        assert out.value == pytest.approx(-4.0, abs=1e-9)
        model = self._binary_model(0.9)
        out = obj.marginalization_loss(model, np.array([[1]]), "fixed")
        assert out.value == pytest.approx(1 / 0.81 - 2 * (1 / 0.9 + 1 / 0.1), abs=1e-6)

    def test_marginal_fixed_rewards_observed_mass(self):
        """Loss decreases as conditional mass moves onto the data value."""
        values = []
        for q in (0.3, 0.5, 0.7, 0.9):
            model = self._binary_model(q)
            values.append(obj.marginalization_loss(model, np.array([[1]]), "fixed").value)
        assert values == sorted(values, reverse=True)

    def test_nll_uniform(self):
        model = LogitTableModel(DiscreteSpace((16,)))
        out = obj.nll_loss(model, np.array([[3], [9]]))
        assert out.value == pytest.approx(np.log(16.0))

    def test_original_variant_ignores_data(self):
        """Same ratio-original optimum for two different datasets."""
        rng = np.random.default_rng(9)
        space = DiscreteSpace((2, 2, 2))
        grid = build_structure("grid", space)
        results = []
        for seed in (0, 1):
            gen = np.random.default_rng(seed)
            if seed == 0:
                samples = (gen.random((2000, 3)) < 0.8).astype(np.int64)
            else:
                samples = (gen.random((2000, 3)) < 0.2).astype(np.int64)
            model = LogitTableModel(space, seed=0)
            fit(model, lambda m, b, r: obj.ratio_matching_loss(m, b, "original"),
                samples, iterations=2500, batch_size=128, lr=0.05, seed=0)
            probs = np.exp(model.conditional_log_probs_t(space.all_states(), 0).data)
            results.append(probs)
        np.testing.assert_allclose(results[0], 0.5, atol=0.02)
        np.testing.assert_allclose(results[0], results[1], atol=0.02)


# Tests-only tape copies of the conditional baselines' whole-tape forms: each
# dimension's conditionals through exp(log_softmax) on the tape, the loss built
# from tape ops, and the clamp of marginalization as an op that passes no
# gradient to clamped entries.


def _ref_pow(a, e):
    return Tensor(a.data**e, (a,), lambda g: (g * e * a.data ** (e - 1.0),))


def _ref_clip_min(a, floor):
    live = a.data > floor
    return Tensor(np.maximum(a.data, floor), (a,), lambda g: (g * live,))


def _ref_conditionals(model, batch, d):
    q = ad.texp(model.conditional_log_probs_t(batch, d))
    return q, ad.take_pairs(q, np.arange(batch.shape[0]), batch[:, d])


def _ref_ratio_matching(model, batch, variant):
    total = Tensor(0.0)
    for d in range(model.space.ndim):
        q, q_obs = _ref_conditionals(model, batch, d)
        if variant == "fixed":
            term = ad.add(ad.square(ad.sub(1.0, q_obs)),
                          ad.sub(ad.tsum(ad.square(q), axis=1), ad.square(q_obs)))
        else:
            term = ad.tsum(ad.square(ad.sub(1.0, q)), axis=1)
        total = ad.add(total, ad.tsum(term))
    return ad.mul(total, 1.0 / batch.shape[0])


def _ref_marginalization(model, batch, variant):
    total, clamped = Tensor(0.0), 0
    for d in range(model.space.ndim):
        q, _ = _ref_conditionals(model, batch, d)
        clamped += int((q.data <= obj.COND_FLOOR).sum())
        qc = _ref_clip_min(q, obj.COND_FLOOR)
        qc_obs = ad.take_pairs(qc, np.arange(batch.shape[0]), batch[:, d])
        if variant == "fixed":
            term = ad.sub(_ref_pow(qc_obs, -2.0), ad.tsum(ad.mul(_ref_pow(qc, -1.0), 2.0), axis=1))
        else:
            term = ad.tsum(ad.sub(_ref_pow(qc, -2.0), ad.mul(_ref_pow(qc, -1.0), 2.0)), axis=1)
        total = ad.add(total, ad.tsum(term))
    return ad.mul(total, 1.0 / batch.shape[0]), clamped


class TestBaselineDifferential:
    """The conditional baselines and NLL, seeded at one model read, against
    their whole-tape forms: values to 1e-12, gradients to 1e-12 of the
    largest entry, and equal clamp counts."""

    CLAMPED = 0  # the logit table's state whose logit is -30

    @classmethod
    def cases(cls):
        rng = np.random.default_rng(45)
        table = LogitTableModel(DiscreteSpace((3, 4, 5)))
        table.params["logits"].data = rng.standard_normal(60)
        table.params["logits"].data[cls.CLAMPED] = -30.0
        mar = MaskedARModel(8, hidden=(16,), seed=9)
        mar.params["b1"].data = rng.standard_normal(8)
        return [(table, table.space.states_of(rng.integers(1, 60, size=40))),
                (mar, rng.integers(0, 2, size=(40, 8)))]

    @staticmethod
    def assert_same(got, model, ref_loss):
        assert got.value == pytest.approx(float(ref_loss.data), rel=1e-12, abs=1e-300)
        ref = obj._finalize(model, ref_loss, {}, float(ref_loss.data), np.ones(()))
        for name, grad in ref.grads.items():
            assert np.abs(got.grads[name] - grad).max() <= 1e-12 * np.abs(grad).max(), name

    @pytest.mark.parametrize("variant", ["fixed", "original"])
    def test_ratio_matching(self, variant):
        for model, batch in self.cases():
            got = obj.ratio_matching_loss(model, batch, variant)
            assert got.meta == {"batch": 40, "dims": model.space.ndim, "variant": variant}
            self.assert_same(got, model, _ref_ratio_matching(model, batch, variant))

    @pytest.mark.parametrize("variant", ["fixed", "original"])
    def test_marginalization(self, variant):
        outs = []
        for model, batch in self.cases():
            outs.append(obj.marginalization_loss(model, batch, variant))
            ref_loss, clamped = _ref_marginalization(model, batch, variant)
            assert outs[-1].meta["clamped_conditionals"] == clamped
            self.assert_same(outs[-1], model, ref_loss)
        # the -30 logit's conditionals are clamped: only the softmax
        # normalizer reaches it, against about 2/q ~ 1e13 per entry unclamped
        assert outs[0].meta["clamped_conditionals"] > 0
        grad = outs[0].grads["logits"]
        assert abs(grad[self.CLAMPED]) <= 1e-12 * np.abs(grad).max()

    def test_nll(self):
        for model, batch in self.cases():
            ref_loss = ad.mul(ad.tsum(model.log_mass_t(batch)), -1.0 / batch.shape[0])
            self.assert_same(obj.nll_loss(model, batch), model, ref_loss)


class TestGradientsAcrossPairs:
    """Engine gradients against finite differences for model-objective pairs."""

    def test_logit_table_pairs(self):
        rng = np.random.default_rng(12)
        space = DiscreteSpace((6,))
        cycle = build_structure("cycle", space)
        rev = build_reverse_index(cycle)
        p = TabularDistribution.random_positive(space, rng)
        kernel = obj.NoiseKernel(space, w=0.85)
        batch = p.sample(48, rng)
        model = LogitTableModel(space)
        model.params["logits"].data = 0.5 * rng.standard_normal(6)
        cases = {
            "csm_exact": lambda: obj.csm_loss_exact(model, p, cycle),
            "jcsm": lambda: obj.jcsm_exact(model, p, cycle),
            "csm_mc": lambda: obj.csm_mc_loss(model, batch, cycle, rev, np.random.default_rng(0)),
            "structured": lambda: obj.csm_structured_loss(model, batch, cycle, np.random.default_rng(1)),
            "dcsm": lambda: obj.dcsm_loss(model, batch, kernel, cycle, np.random.default_rng(2)),
            "dcsm_exact": lambda: obj.dcsm_loss_exact(model, p, kernel, cycle),
            "ratio_fixed": lambda: obj.ratio_matching_loss(model, batch, "fixed"),
            "ratio_original": lambda: obj.ratio_matching_loss(model, batch, "original"),
            "marginal_fixed": lambda: obj.marginalization_loss(model, batch, "fixed"),
            "marginal_original": lambda: obj.marginalization_loss(model, batch, "original"),
            "nll": lambda: obj.nll_loss(model, batch),
        }
        for name, loss in cases.items():
            report = gradient_check(model.params, loss, rng=np.random.default_rng(3))
            assert report["max_rel_error"] < 1e-4, f"{name}: {report}"

    def test_score_net_pairs(self):
        rng = np.random.default_rng(13)
        space = DiscreteSpace((12,))
        cycle = build_structure("cycle", space)
        rev = build_reverse_index(cycle)
        p = TabularDistribution.random_positive(space, rng)
        kernel = obj.NoiseKernel(space, w=0.9)
        batch = p.sample(32, rng)
        net = ScoreNetModel(space, degree=1, hidden=(8,), seed=5)
        cases = {
            "jcsm": lambda: obj.jcsm_exact(net, p, cycle),
            "csm_mc": lambda: obj.csm_mc_loss(net, batch, cycle, rev, np.random.default_rng(0)),
            "structured": lambda: obj.csm_structured_loss(net, batch, cycle, np.random.default_rng(1)),
            "dcsm": lambda: obj.dcsm_loss(net, batch, kernel, cycle, np.random.default_rng(2)),
        }
        for name, loss in cases.items():
            report = gradient_check(net.params, loss, rng=np.random.default_rng(4))
            assert report["max_rel_error"] < 1e-4, f"{name}: {report}"

    def test_masked_ar_structured_beyond_enumeration_cap(self):
        model = MaskedARModel(24, hidden=(4,), seed=8)
        grid = build_structure("grid", model.space)
        assert not grid.space.enumerable
        batch = np.random.default_rng(15).integers(0, 2, size=(12, 24))
        loss = lambda: obj.csm_structured_loss(model, batch, grid, np.random.default_rng(16))
        out = loss()
        assert np.isfinite(out.value)
        # one drawn out-edge and one bit-flip in-edge per batch state
        assert out.meta["j2_edges"] == 12
        assert out.meta["edges"] == 24
        report = gradient_check(model.params, loss, max_checks=25, rng=np.random.default_rng(17))
        assert report["max_rel_error"] < 1e-4, report

    def test_masked_ar_pairs(self):
        rng = np.random.default_rng(14)
        model = MaskedARModel(4, hidden=(10,), seed=6)
        grid = build_structure("grid", model.space)
        batch = rng.integers(0, 2, size=(24, 4))
        cases = {
            "nll": lambda: obj.nll_loss(model, batch),
            "ratio_fixed": lambda: obj.ratio_matching_loss(model, batch, "fixed"),
            "ratio_original": lambda: obj.ratio_matching_loss(model, batch, "original"),
            "marginal_fixed": lambda: obj.marginalization_loss(model, batch, "fixed"),
            "marginal_original": lambda: obj.marginalization_loss(model, batch, "original"),
            "structured": lambda: obj.csm_structured_loss(model, batch, grid, np.random.default_rng(5)),
        }
        for name, loss in cases.items():
            report = gradient_check(model.params, loss, rng=np.random.default_rng(6))
            assert report["max_rel_error"] < 1e-4, f"{name}: {report}"


class TestStructuredLossUnboundedBelow:
    def test_falls_without_bound_as_an_in_edge_source_loses_mass(self):
        """On a fixed batch, J1 - J2 is unbounded below: an in-edge whose
        source lies outside the batch enters only through -2 beta c, with
        c = q(x)/q(src) - 1, so the loss falls as exp(-logit(src)) while the
        J1 terms stay bounded, and its gradient lowers that logit further."""
        space = DiscreteSpace((8,))
        cycle = build_structure("cycle", space)  # one out-edge, x -> x + 1
        batch = np.array([[3], [3], [5], [6]])  # J2 sources 2, 2, 4, 5; J1 edges 3 -> 4, 5 -> 6, 6 -> 7
        model = LogitTableModel(space)
        model.params["logits"].data = np.random.default_rng(46).standard_normal(8)
        l3, outs = model.params["logits"].data[3], {}
        for l2 in (0.0, -5.0, -10.0, -20.0, -40.0):
            model.params["logits"].data[2] = l2
            outs[l2] = obj.csm_structured_loss(model, batch, cycle, np.random.default_rng(0))
        values = [out.value for out in outs.values()]
        assert values == sorted(values, reverse=True) and values[-1] < -1e17
        # two in-edges from state 2, each -2 (1/4) (exp(l3 - l2) - 1)
        for l2, out in outs.items():
            assert out.value == pytest.approx(outs[0.0].value + np.exp(l3) - np.exp(l3 - l2), rel=1e-12)
            assert out.grads["logits"][2] == pytest.approx(np.exp(l3 - l2), rel=1e-12)


class TestDispatch:
    def test_all_names_buildable(self):
        space = DiscreteSpace((6,))
        cycle = build_structure("cycle", space)
        rng = np.random.default_rng(0)
        p = TabularDistribution.random_positive(space, rng)
        rev = build_reverse_index(cycle)
        kernel = obj.NoiseKernel(space, w=0.9)
        model = LogitTableModel(space)
        batch = p.sample(16, rng)
        for name in obj.OBJECTIVE_NAMES:
            fn = obj.make_objective(
                name, structure=cycle, empirical=p, kernel=kernel, reverse_index=rev
            )
            out = fn(model, batch, rng)
            assert np.isfinite(out.value), name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            obj.make_objective("fisher")

    def test_missing_context_rejected(self):
        cycle = build_structure("cycle", DiscreteSpace((4,)))
        with pytest.raises(ValueError):
            obj.make_objective("csm_mc", structure=cycle)

    def test_each_name_builds_with_exactly_its_context(self):
        space = DiscreteSpace((6,))
        cycle = build_structure("cycle", space)
        rng = np.random.default_rng(1)
        p = TabularDistribution.random_positive(space, rng)
        context = {"structure": cycle, "empirical": p, "kernel": obj.NoiseKernel(space, w=0.9),
                   "reverse_index": build_reverse_index(cycle)}
        model = LogitTableModel(space)
        batch = p.sample(16, rng)
        assert obj.OBJECTIVE_NAMES == tuple(obj.OBJECTIVES)
        for name in obj.OBJECTIVE_NAMES:
            needs, _ = obj.OBJECTIVES[name]
            fn = obj.make_objective(name, **{key: context[key] for key in needs})
            assert np.isfinite(fn(model, batch, rng).value), name
            for key in needs:
                with pytest.raises(ValueError, match=key):
                    obj.make_objective(name, **{k: context[k] for k in needs if k != key})

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError):
            obj.make_objective("nll", noise=0.1)
