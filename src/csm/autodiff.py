"""Reverse-mode differentiation on float64 numpy arrays, plus Adam.

A :class:`Tensor` records its parents and a vector-Jacobian closure as
operations build up; ``backward()`` on a scalar output topologically
sorts the tape and accumulates exact gradients into every reachable
tensor's ``grad``; ``backward(seed)`` starts from dL/d(tensor) for a loss
L computed in numpy. The first gradient to reach a tensor is stored as it
is, later ones are added out of place. Non-Tensor operands are treated
as constants. The op set is deliberately small: elementwise arithmetic,
exp, tanh and softplus nonlinearities, matmul, gathers, the ratio
exp(a[hi] - a[lo]) - 1, reductions and log-sum-exp, which is everything
the models and objectives here need.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_vjp")

    def __init__(self, data, parents: tuple = (), vjp: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def backward(self, grad=None):
        """Accumulate dL/d(ancestor) into every ancestor's ``grad``, seeded by
        ``grad`` = dL/d(self); without a seed, L is self and must be a scalar."""
        if grad is None and self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        grad = np.ones_like(self.data) if grad is None else np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ValueError(f"backward() seed has shape {grad.shape}, tensor has shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p is not None and id(p) not in visited:
                    stack.append((p, False))
        self.grad = grad
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if parent is None or g is None:
                    continue
                # out of place: a VJP may hand back a view of another gradient
                parent.grad = g if parent.grad is None else parent.grad + g


def parameter(data) -> Tensor:
    """Leaf tensor intended to receive gradients."""
    return Tensor(np.array(data, dtype=np.float64))


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _maybe(x) -> Tensor | None:
    return x if isinstance(x, Tensor) else None


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)

    def vjp(g):
        return (_unbroadcast(g, ad.shape), _unbroadcast(g, bd.shape))

    return Tensor(ad + bd, (_maybe(a), _maybe(b)), vjp)


def sub(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)

    def vjp(g):
        return (_unbroadcast(g, ad.shape), _unbroadcast(-g, bd.shape))

    return Tensor(ad - bd, (_maybe(a), _maybe(b)), vjp)


def mul(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)

    def vjp(g):
        return (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape))

    return Tensor(ad * bd, (_maybe(a), _maybe(b)), vjp)


def pow_const(a, exponent: float) -> Tensor:
    ad = _data(a)
    e = float(exponent)
    return Tensor(ad**e, (_maybe(a),), lambda g: (g * e * ad ** (e - 1.0),))


def square(a) -> Tensor:
    return mul(a, a)


def texp(a) -> Tensor:
    out = np.exp(_data(a))
    return Tensor(out, (_maybe(a),), lambda g: (g * out,))


def ttanh(a) -> Tensor:
    out = np.tanh(_data(a))
    return Tensor(out, (_maybe(a),), lambda g: (g * (1.0 - out * out),))


def softplus(a) -> Tensor:
    ad = _data(a)
    out = np.maximum(ad, 0.0) + np.log1p(np.exp(-np.abs(ad)))
    s = 1.0 / (1.0 + np.exp(-np.clip(ad, -500, 500)))
    return Tensor(out, (_maybe(a),), lambda g: (g * s,))


def matmul(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)

    def vjp(g):
        return (g @ bd.T, ad.T @ g)

    return Tensor(ad @ bd, (_maybe(a), _maybe(b)), vjp)


def _scatter_add(flat_idx: np.ndarray, g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum of ``g`` into a zero array of ``shape`` at non-negative flat indices."""
    return np.bincount(flat_idx.ravel(), weights=g.ravel(), minlength=int(np.prod(shape))).reshape(shape)


def gather(a, indices) -> Tensor:
    """Rows (or scalars, for 1-D inputs) of ``a`` at non-negative ``indices``."""
    ad = _data(a)
    idx = np.asarray(indices, dtype=np.int64)

    def vjp(g):
        inner = int(np.prod(ad.shape[1:]))
        flat = idx if inner == 1 else idx[..., None] * inner + np.arange(inner)
        return (_scatter_add(flat, g, ad.shape),)

    return Tensor(ad[idx], (_maybe(a),), vjp)


def ratio_m1(a, hi, lo) -> Tensor:
    """exp(a[hi[j]] - a[lo[j]]) - 1 for a 1-D ``a`` and index arrays: the score
    entries of a log-mass vector as one node."""
    ad = _data(a)
    ratio = np.exp(ad[hi] - ad[lo])

    def vjp(g):
        gr = g * ratio
        return (np.bincount(hi, gr, ad.size) - np.bincount(lo, gr, ad.size),)

    return Tensor(ratio - 1.0, (_maybe(a),), vjp)


def take_pairs(a, rows, cols) -> Tensor:
    """Elements a[rows[j], cols[j]] of a 2-D tensor."""
    ad = _data(a)
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)

    def vjp(g):
        return (_scatter_add(r * ad.shape[1] + c, g, ad.shape),)

    return Tensor(ad[r, c], (_maybe(a),), vjp)


def tsum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    ad = _data(a)

    def vjp(g):
        ge = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(ge, ad.shape).copy(),)

    return Tensor(ad.sum(axis=axis, keepdims=keepdims), (_maybe(a),), vjp)


def reshape(a, shape) -> Tensor:
    ad = _data(a)
    return Tensor(ad.reshape(shape), (_maybe(a),), lambda g: (g.reshape(ad.shape),))


def logsumexp(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    ad = _data(a)
    peak = ad.max(axis=axis, keepdims=True)
    expd = np.exp(ad - peak)
    total = expd.sum(axis=axis, keepdims=True)
    out = np.log(total) + peak
    if not keepdims:
        out = out.reshape(()) if axis is None else np.squeeze(out, axis=axis)
    soft = expd / total

    def vjp(g):
        return (soft * (g if keepdims or axis is None else np.expand_dims(g, axis)),)

    return Tensor(out, (_maybe(a),), vjp)


def log_softmax(a, axis: int = -1) -> Tensor:
    return sub(a, logsumexp(a, axis=axis, keepdims=True))


def clip_min(a, floor: float) -> Tensor:
    """Clamp from below; gradient flows only through unclamped entries."""
    ad = _data(a)
    mask = ad > floor
    return Tensor(np.maximum(ad, floor), (_maybe(a),), lambda g: (g * mask,))


class Adam:
    """Standard Adam with bias correction over a named parameter dict.

    Deterministic given the gradient sequence; raises on non-finite
    gradients, naming the offending parameter.
    """

    def __init__(self, lr: float = 5e-4, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor], grads: dict[str, np.ndarray]):
        """Update every parameter in place from ``grads[name]``."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in params.items():
            g = grads[name]
            if not np.all(np.isfinite(g)):
                bad = int(np.flatnonzero(~np.isfinite(g))[0])
                raise FloatingPointError(f"non-finite gradient for {name!r} at flat index {bad}")
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            mhat = self.m[name] / bc1
            vhat = self.v[name] / bc2
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def gradient_check(
    params: dict[str, Tensor],
    loss_fn: Callable[[], "object"],
    step: float = 1e-5,
    max_checks: int = 200,
    rng: np.random.Generator | None = None,
) -> dict:
    """Compare engine gradients to central finite differences.

    ``loss_fn`` must return an object with ``value`` (float) and
    ``grads`` (name -> array); it is re-evaluated with perturbed
    parameters, so any internal randomness must be seeded per call. At
    most ``max_checks`` coordinates are probed, chosen uniformly.
    Relative error uses max(|analytic|, |numeric|, 1e-6) to keep the
    finite-difference noise floor out of near-zero entries.
    """
    rng = rng or np.random.default_rng(0)
    coords = [
        (name, i) for name, p in params.items() for i in range(p.data.size)
    ]
    if len(coords) > max_checks:
        picks = rng.choice(len(coords), size=max_checks, replace=False)
        coords = [coords[int(k)] for k in picks]
    analytic = loss_fn().grads
    worst = 0.0
    worst_at = None
    for name, i in coords:
        flat = params[name].data.reshape(-1)
        saved = flat[i]
        flat[i] = saved + step
        up = loss_fn().value
        flat[i] = saved - step
        down = loss_fn().value
        flat[i] = saved
        numeric = (up - down) / (2.0 * step)
        a = float(analytic[name].reshape(-1)[i])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        if err > worst:
            worst, worst_at = err, (name, i)
    return {"max_rel_error": worst, "worst_at": worst_at, "n_checked": len(coords)}
