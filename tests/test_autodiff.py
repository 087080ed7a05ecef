"""Tape engine gradients against central finite differences, plus Adam."""

import numpy as np
import pytest

from csm import autodiff as ad


def _fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        up = f()
        flat[i] = saved - h
        down = f()
        flat[i] = saved
        gf[i] = (up - down) / (2 * h)
    return g


class TestElementwiseOps:
    @pytest.mark.parametrize("op,np_op", [
        (ad.texp, np.exp),
    ])
    def test_unary_gradients(self, op, np_op):
        rng = np.random.default_rng(0)
        x = ad.parameter(rng.random(7) + 0.5)
        out = ad.tsum(op(x))
        out.backward()
        numeric = _fd_grad(lambda: float(op(ad.Tensor(x.data)).data.sum()), x.data)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-6, atol=1e-9)

    def test_composite_expression(self):
        rng = np.random.default_rng(1)
        x = ad.parameter(rng.standard_normal(5))
        y = ad.parameter(rng.standard_normal(5))

        def build():
            # tanh(y + x) through a dense layer with constant identity weights
            hidden = ad.dense(ad.reshape(ad.add(y, x), (1, 5)), np.eye(5), np.zeros(5), tanh=True)
            return ad.tsum(ad.mul(ad.texp(ad.mul(x, 0.3)), ad.reshape(hidden, (5,))))

        build().backward()
        gx, gy = x.grad.copy(), y.grad.copy()
        np.testing.assert_allclose(gx, _fd_grad(lambda: float(build().data), x.data), rtol=1e-5)
        x.grad = y.grad = None
        np.testing.assert_allclose(gy, _fd_grad(lambda: float(build().data), y.data), rtol=1e-5)

    def test_broadcast_bias_gradient(self):
        rng = np.random.default_rng(2)
        w = ad.parameter(rng.standard_normal((4, 3)))
        b = ad.parameter(rng.standard_normal(3))
        x = rng.standard_normal((8, 4))
        out = ad.tsum(ad.square(ad.dense(x, w, b, tanh=False)))
        out.backward()
        num = _fd_grad(
            lambda: float((np.asarray(x @ w.data + b.data) ** 2).sum()), b.data
        )
        np.testing.assert_allclose(b.grad, num, rtol=1e-6)


class TestStructuredOps:
    def test_gather_accumulates_duplicates(self):
        x = ad.parameter(np.array([1.0, 2.0, 3.0]))
        out = ad.tsum(ad.gather(x, np.array([0, 0, 2])))
        out.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])

    def test_take_pairs(self):
        x = ad.parameter(np.arange(6, dtype=float).reshape(2, 3))
        out = ad.tsum(ad.take_pairs(x, [0, 1, 1], [2, 0, 0]))
        out.backward()
        np.testing.assert_array_equal(x.grad, [[0, 0, 1], [2, 0, 0]])

    def test_logsumexp_matches_numpy(self):
        rng = np.random.default_rng(3)
        x = ad.parameter(rng.standard_normal((4, 5)) * 3)
        out = ad.logsumexp(x, axis=1)
        ref = np.log(np.exp(x.data).sum(axis=1))
        np.testing.assert_allclose(out.data, ref, rtol=1e-12)
        ad.tsum(out).backward()
        np.testing.assert_allclose(x.grad.sum(axis=1), 1.0, rtol=1e-12)

    def test_log_softmax_normalizes(self):
        rng = np.random.default_rng(4)
        x = ad.parameter(rng.standard_normal(9))
        out = ad.log_softmax(x)
        assert float(np.exp(out.data).sum()) == pytest.approx(1.0, abs=1e-12)

    def test_mean_and_reshape(self):
        x = ad.parameter(np.arange(6, dtype=float))
        out = ad.mul(ad.tsum(ad.square(ad.reshape(x, (2, 3)))), 1.0 / 6.0)
        out.backward()
        np.testing.assert_allclose(x.grad, 2 * x.data / 6)


class TestBackwardMechanics:
    def test_requires_scalar(self):
        x = ad.parameter(np.ones(3))
        with pytest.raises(ValueError):
            x.backward()

    def test_seed_of_the_wrong_shape_names_both(self):
        x = ad.parameter(np.ones(3))
        y = ad.texp(x)
        with pytest.raises(ValueError, match=r"seed has shape \(2,\), tensor has shape \(3,\)"):
            y.backward(np.ones(2))
        with pytest.raises(ValueError, match="scalar"):
            y.backward()

    def test_seeded_backward_is_the_backward_of_the_weighted_sum(self):
        rng = np.random.default_rng(7)
        x = ad.parameter(rng.standard_normal((4, 3)))
        w = rng.standard_normal((3, 2))
        seed = rng.standard_normal((4, 2))
        b = np.zeros(2)
        ad.dense(x, w, b, tanh=True).backward(seed)
        seeded, x.grad = x.grad, None
        ad.tsum(ad.mul(ad.dense(x, w, b, tanh=True), seed)).backward()
        np.testing.assert_allclose(seeded, x.grad, rtol=1e-15, atol=1e-15)

    def test_shared_subexpression_counted_twice(self):
        x = ad.parameter(np.array([2.0]))
        y = ad.texp(x)
        out = ad.tsum(ad.add(y, y))
        out.backward()
        np.testing.assert_allclose(x.grad, 2 * np.exp(2.0))

    def test_two_paths_mul_self(self):
        x = ad.parameter(np.array([1.5, -2.0, 0.5]))
        out = ad.tsum(ad.mul(x, x))
        out.backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_two_paths_add_self_unaliased(self):
        x = ad.parameter(np.array([1.5, -2.0, 0.5]))
        y = ad.add(x, x)
        out = ad.tsum(y)
        out.backward()
        np.testing.assert_allclose(x.grad, 2.0)
        np.testing.assert_allclose(y.grad, 1.0)  # the sum did not land in y's gradient
        assert not np.shares_memory(x.grad, y.grad)


class TestScatterVJPs:
    """gather / take_pairs gradients against an np.add.at reference."""

    def test_gather_repeated_indices(self):
        rng = np.random.default_rng(5)
        for shape in ((6,), (6, 3)):
            x = ad.parameter(rng.standard_normal(shape))
            idx = np.array([4, 0, 4, 4, 2, 0, 5])
            weights = rng.standard_normal((idx.size,) + shape[1:])
            ad.tsum(ad.mul(ad.gather(x, idx), weights)).backward()
            want = np.zeros(shape)
            np.add.at(want, idx, weights)
            np.testing.assert_allclose(x.grad, want, rtol=0, atol=1e-15)

    def test_ratio_m1_matches_its_gather_chain(self):
        """One node with the value and gradient of exp(a[hi] - a[lo]) - 1 built
        from gathers, repeated indices and hi = lo included."""
        rng = np.random.default_rng(8)
        x = ad.parameter(rng.standard_normal(6))
        hi, lo = np.array([4, 0, 4, 2, 5, 1]), np.array([0, 0, 3, 4, 4, 1])
        weights = rng.standard_normal(hi.size)
        out = ad.ratio_m1(x, hi, lo)
        ad.tsum(ad.mul(out, weights)).backward()
        got, x.grad = x.grad, None
        chain = ad.sub(ad.texp(ad.sub(ad.gather(x, hi), ad.gather(x, lo))), 1.0)
        ad.tsum(ad.mul(chain, weights)).backward()
        np.testing.assert_array_equal(out.data, chain.data)
        np.testing.assert_allclose(got, x.grad, rtol=0, atol=1e-15)

    def test_take_pairs_repeated_pairs(self):
        rng = np.random.default_rng(6)
        x = ad.parameter(rng.standard_normal((4, 3)))
        rows, cols = np.array([0, 3, 0, 2, 3, 0]), np.array([1, 2, 1, 0, 2, 2])
        weights = rng.standard_normal(rows.size)
        ad.tsum(ad.mul(ad.take_pairs(x, rows, cols), weights)).backward()
        want = np.zeros((4, 3))
        np.add.at(want, (rows, cols), weights)
        np.testing.assert_allclose(x.grad, want, rtol=0, atol=1e-15)


class TestFusedOps:
    """dense and bernoulli_log_lik against numpy references: forward, VJP and
    central differences; no op writes into its inputs' data or the seed."""

    @pytest.mark.parametrize("tanh", [True, False], ids=["tanh", "affine"])
    @pytest.mark.parametrize("constant_input", [True, False], ids=["constant_input", "tensor_input"])
    def test_dense_matches_numpy(self, tanh, constant_input):
        rng = np.random.default_rng(9)
        h_data = rng.standard_normal((6, 4))
        h = h_data.copy() if constant_input else ad.parameter(h_data)
        w = ad.parameter(rng.standard_normal((4, 3)))
        b = ad.parameter(rng.standard_normal(3))
        seed = rng.standard_normal((6, 3))
        before = [h_data.copy(), w.data.copy(), b.data.copy(), seed.copy()]
        out = ad.dense(h, w, b, tanh=tanh)
        pre = h_data @ w.data + b.data
        want = np.tanh(pre) if tanh else pre
        np.testing.assert_allclose(out.data, want, rtol=1e-14, atol=1e-15)
        out.backward(seed)
        ge = seed * (1.0 - np.tanh(pre) ** 2) if tanh else seed
        np.testing.assert_allclose(w.grad, h_data.T @ ge, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(b.grad, ge.sum(axis=0), rtol=1e-12, atol=1e-14)
        if constant_input:
            np.testing.assert_array_equal(h, before[0])
        else:
            np.testing.assert_allclose(h.grad, ge @ w.data.T, rtol=1e-12, atol=1e-14)
            np.testing.assert_array_equal(h.data, before[0])
        for got, saved in zip((w.data, b.data, seed), before[1:]):
            np.testing.assert_array_equal(got, saved)
        assert not np.shares_memory(out.data, h_data)

    def test_bernoulli_log_lik_matches_numpy(self):
        rng = np.random.default_rng(10)
        logits = ad.parameter(np.concatenate([rng.standard_normal((5, 4)) * 3,
                                              [[800.0, -800.0, 0.0, 40.0]]]))
        x = rng.integers(0, 2, size=(6, 4)).astype(np.float64)
        seed = rng.standard_normal(6)
        before = [logits.data.copy(), x.copy(), seed.copy()]
        out = ad.bernoulli_log_lik(logits, x)
        with np.errstate(over="ignore", divide="ignore"):
            p = 1.0 / (1.0 + np.exp(-logits.data))
            want = np.where(x == 1, np.log(p), np.log1p(-p)).sum(axis=1)
        np.testing.assert_allclose(out.data[:5], want[:5], rtol=1e-12)
        assert np.isfinite(out.data).all()
        out.backward(seed)
        np.testing.assert_allclose(logits.grad, seed[:, None] * (x - p), rtol=1e-12, atol=1e-15)
        for got, saved in zip((logits.data, x, seed), before):
            np.testing.assert_array_equal(got, saved)

    def test_gradient_check_through_both(self):
        """A two-layer masked-AR-style head passes the finite-difference check."""
        from csm.objectives import ObjectiveValue

        rng = np.random.default_rng(11)
        params = {
            "w0": ad.parameter(rng.standard_normal((5, 7)) * 0.5),
            "b0": ad.parameter(rng.standard_normal(7) * 0.1),
            "w1": ad.parameter(rng.standard_normal((7, 5)) * 0.5),
            "b1": ad.parameter(rng.standard_normal(5) * 0.1),
        }
        x = rng.integers(0, 2, size=(8, 5)).astype(np.float64)

        def loss():
            for p in params.values():
                p.grad = None
            hidden = ad.dense(x, params["w0"], params["b0"], tanh=True)
            logits = ad.dense(hidden, params["w1"], params["b1"], tanh=False)
            out = ad.tsum(ad.bernoulli_log_lik(logits, x))
            out.backward()
            return ObjectiveValue(value=float(out.data), grads={k: p.grad for k, p in params.items()})

        report = ad.gradient_check(params, loss, max_checks=100)
        assert report["n_checked"] == 82
        assert report["max_rel_error"] < 1e-6, report


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = ad.parameter(np.array([1.0, -2.0]))
        opt = ad.Adam(lr=0.1)
        opt.step({"p": p}, {"p": np.zeros(2)})
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        """Bias correction makes the first update a signed lr step."""
        p = ad.parameter(np.array([0.0, 0.0]))
        opt = ad.Adam(lr=0.05)
        opt.step({"p": p}, {"p": np.array([3.0, -7.0])})
        np.testing.assert_allclose(p.data, [-0.05, 0.05], rtol=1e-6)

    def test_quadratic_decreases(self):
        p = ad.parameter(np.array([3.0]))
        opt = ad.Adam(lr=0.1)
        losses = []
        for _ in range(50):
            losses.append(float(p.data[0] ** 2))
            opt.step({"p": p}, {"p": 2 * p.data})
        assert losses[-1] < losses[0]
        assert losses[10] < losses[0]

    def test_non_finite_gradient_names_parameter(self):
        p = ad.parameter(np.zeros(3))
        opt = ad.Adam()
        with pytest.raises(FloatingPointError, match="weights"):
            opt.step({"weights": p}, {"weights": np.array([0.0, np.nan, 0.0])})


class TestGradientCheck:
    def test_constant_loss_zero_gradients(self):
        from csm.objectives import ObjectiveValue

        p = ad.parameter(np.ones(4))

        def loss():
            return ObjectiveValue(value=1.0, grads={"p": np.zeros(4)})

        report = ad.gradient_check({"p": p}, loss)
        assert report["max_rel_error"] < 1e-8
