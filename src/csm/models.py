"""Trainable score and density models.

Two families satisfy the score-model interface (``score_vector`` for
evaluation, ``score_entries_t`` for differentiable training):

- density models expose an unnormalized log-mass and imply their score
  through neighbor ratios exp(log q(x_n) - log q(x)) - 1: a logit table
  over an enumerable space, and a masked autoregressive network over
  binary dimensions;
- a feed-forward score network outputs the score vector directly and
  only works on fixed-degree structures.

All parameters are float64 tensors on the tape in :mod:`csm.autodiff`;
``fit`` runs seeded minibatch Adam over any objective callable.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import DiscreteSpace, NeighborhoodStructure


class DensityModel:
    """Base for models exposing unnormalized log-mass over states."""

    kind = "density"
    space: DiscreteSpace
    params: dict[str, Tensor]
    seed: int

    def log_mass_unnorm_t(self, states: np.ndarray) -> Tensor:
        raise NotImplementedError

    def log_mass_t(self, states: np.ndarray) -> Tensor:
        """Exactly normalized log-probability of each state (tape)."""
        raise NotImplementedError

    def log_mass_unnorm(self, states: np.ndarray) -> np.ndarray:
        return self.log_mass_unnorm_t(np.asarray(states, dtype=np.int64)).data

    def log_mass(self, x: Sequence[int]) -> float:
        state = self.space.validate_state(x)
        return float(self.log_mass_t(np.asarray([state], dtype=np.int64)).data[0])

    def score_entries_t(
        self, structure: NeighborhoodStructure, states: np.ndarray, positions: np.ndarray
    ) -> Tensor:
        """Differentiable score entries c(states[j])[positions[j]]."""
        states = np.asarray(states, dtype=np.int64)
        dst = structure.neighbor_states_at(states, positions)
        delta = ad.sub(self.log_mass_unnorm_t(dst), self.log_mass_unnorm_t(states))
        return ad.sub(ad.texp(delta), 1.0)

    def score_entries(self, structure, states, positions) -> np.ndarray:
        return self.score_entries_t(structure, states, positions).data

    def score_vector(self, structure: NeighborhoodStructure, x: Sequence[int]) -> np.ndarray:
        state = self.space.validate_state(x)
        deg = structure.degree(state)
        if deg == 0:
            return np.empty(0)
        batch = np.tile(np.asarray(state, dtype=np.int64), (deg, 1))
        return self.score_entries(structure, batch, np.arange(deg))

    def zero_grad(self):
        ad.zero_grads(self.params)

    def conditional_log_probs_t(self, states: np.ndarray, d: int) -> Tensor:
        """Full conditionals log q(value | other coords) for dimension d.

        Evaluates the joint at every category substitution of coordinate
        d and log-normalizes, shape (batch, dims[d]).
        """
        states = np.asarray(states, dtype=np.int64)
        n_d = self.space.dims[d]
        b = states.shape[0]
        tiled = np.repeat(states, n_d, axis=0)
        tiled[:, d] = np.tile(np.arange(n_d), b)
        lm = self.log_mass_unnorm_t(tiled)
        return ad.log_softmax(ad.reshape(lm, (b, n_d)), axis=1)


class LogitTableModel(DensityModel):
    """One free logit per state of an enumerable space.

    The induced distribution is softmax(logits), strictly positive by
    construction; scores depend only on logit differences.
    """

    kind = "logit_table"

    def __init__(self, space: DiscreteSpace, seed: int = 0, init_scale: float = 0.0):
        n = space.require_enumerable("logit table")
        self.space = space
        self.seed = seed
        rng = np.random.default_rng(seed)
        init = init_scale * rng.standard_normal(n) if init_scale else np.zeros(n)
        self.params = {"logits": ad.parameter(init)}

    @property
    def logits(self) -> Tensor:
        return self.params["logits"]

    def log_mass_unnorm_t(self, states: np.ndarray) -> Tensor:
        return ad.gather(self.logits, self.space.indices_of(states))

    def score_entries_flat_t(self, structure, src_flat, positions) -> Tensor:
        """:meth:`score_entries_t` from flat source indices, for the estimators."""
        indptr, indices = structure.adjacency()
        dst_flat = indices[indptr[src_flat] + positions]
        delta = ad.sub(ad.gather(self.logits, dst_flat), ad.gather(self.logits, src_flat))
        return ad.sub(ad.texp(delta), 1.0)

    def log_mass_t(self, states: np.ndarray) -> Tensor:
        lse = ad.logsumexp(self.logits)
        return ad.sub(self.log_mass_unnorm_t(states), lse)

    def distribution(self):
        from .exact import TabularDistribution

        z = self.logits.data - self.logits.data.max()
        mass = np.exp(z)
        return TabularDistribution(self.space, mass / mass.sum())

    def config(self) -> dict:
        return {"dims": list(self.space.dims)}


class ScoreNetModel:
    """Feed-forward network emitting the score vector directly.

    Maps a normalized state encoding to one output per neighbor slot, so
    it requires a structure whose degree is the same at every state.
    Coordinates are scaled affinely to [-1, 1] by default; ``one_hot``
    switches to concatenated indicator encodings.
    """

    kind = "score_net"

    def __init__(
        self,
        space: DiscreteSpace,
        degree: int,
        hidden: Sequence[int] = (100, 100, 100),
        seed: int = 0,
        one_hot: bool = False,
    ):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.space = space
        self.degree = degree
        self.hidden = tuple(int(h) for h in hidden)
        self.seed = seed
        self.one_hot = one_hot
        in_dim = sum(space.dims) if one_hot else space.ndim
        rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}
        widths = (in_dim, *self.hidden, degree)
        for layer, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            w = rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
            self.params[f"w{layer}"] = ad.parameter(w)
            self.params[f"b{layer}"] = ad.parameter(np.zeros(fan_out))
        self.n_layers = len(widths) - 1

    def encode(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=np.int64)
        if self.one_hot:
            parts = []
            for d, n in enumerate(self.space.dims):
                block = np.zeros((states.shape[0], n))
                block[np.arange(states.shape[0]), states[:, d]] = 1.0
                parts.append(block)
            return np.concatenate(parts, axis=1)
        dims = np.asarray(self.space.dims, dtype=np.float64)
        return 2.0 * states / (dims - 1.0) - 1.0

    def forward_t(self, encoded: np.ndarray) -> Tensor:
        h: Tensor | np.ndarray = encoded
        for layer in range(self.n_layers):
            h = ad.add(ad.matmul(h, self.params[f"w{layer}"]), self.params[f"b{layer}"])
            if layer < self.n_layers - 1:
                h = ad.ttanh(h)
        return h

    def _check_structure(self, structure: NeighborhoodStructure):
        deg = structure.uniform_degree()
        if deg != self.degree:
            raise ValueError(
                f"score net emits {self.degree} entries but structure degree is {deg}"
            )

    def score_entries_t(
        self, structure: NeighborhoodStructure, states: np.ndarray, positions: np.ndarray
    ) -> Tensor:
        self._check_structure(structure)
        out = self.forward_t(self.encode(states))
        m = np.asarray(states).shape[0]
        return ad.take_pairs(out, np.arange(m), np.asarray(positions, dtype=np.int64))

    def score_entries(self, structure, states, positions) -> np.ndarray:
        return self.score_entries_t(structure, states, positions).data

    def score_vector(self, structure: NeighborhoodStructure, x: Sequence[int]) -> np.ndarray:
        self._check_structure(structure)
        state = self.space.validate_state(x)
        return self.forward_t(self.encode(np.asarray([state]))).data[0]

    def zero_grad(self):
        ad.zero_grads(self.params)

    def config(self) -> dict:
        return {
            "dims": list(self.space.dims),
            "degree": self.degree,
            "hidden": list(self.hidden),
            "one_hot": self.one_hot,
        }


class MaskedARModel(DensityModel):
    """Masked feed-forward conditional-Bernoulli network over binary data.

    Degree masks keep output d a function of inputs strictly below d, so
    log q(x) = sum_d log Bernoulli(x_d | sigmoid(logit_d)) is exactly
    normalized by construction.
    """

    kind = "masked_ar"

    def __init__(self, n_dims: int, hidden: Sequence[int] = (100, 100), seed: int = 0):
        if n_dims < 1:
            raise ValueError("need at least one dimension")
        self.space = DiscreteSpace(tuple([2] * n_dims))
        self.n_dims = n_dims
        self.hidden = tuple(int(h) for h in hidden)
        self.seed = seed
        rng = np.random.default_rng(seed)
        in_deg = np.arange(1, n_dims + 1)
        prev_deg = in_deg
        self.params = {}
        self._masks: list[np.ndarray] = []
        widths = (n_dims, *self.hidden, n_dims)
        for layer, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            last = layer == len(widths) - 2
            if last:
                deg = np.arange(1, n_dims + 1)
                mask = (deg[None, :] > prev_deg[:, None]).astype(np.float64)
            else:
                # hidden degrees cycle 1..D-1 (all-1 when D == 1, which
                # disconnects everything: a single bit has no parents)
                deg = (np.arange(fan_out) % max(n_dims - 1, 1)) + 1
                mask = (deg[None, :] >= prev_deg[:, None]).astype(np.float64)
            w = rng.standard_normal((fan_in, fan_out)) / np.sqrt(max(fan_in, 1))
            self.params[f"w{layer}"] = ad.parameter(w)
            self.params[f"b{layer}"] = ad.parameter(np.zeros(fan_out))
            self._masks.append(mask)
            prev_deg = deg
        self.n_layers = len(widths) - 1

    def cond_logits_t(self, states: np.ndarray) -> Tensor:
        h: Tensor | np.ndarray = np.asarray(states, dtype=np.float64)
        for layer in range(self.n_layers):
            w = ad.mul(self.params[f"w{layer}"], self._masks[layer])
            h = ad.add(ad.matmul(h, w), self.params[f"b{layer}"])
            if layer < self.n_layers - 1:
                h = ad.ttanh(h)
        return h

    def log_mass_t(self, states: np.ndarray) -> Tensor:
        states = np.asarray(states, dtype=np.int64)
        logits = self.cond_logits_t(states)
        x = states.astype(np.float64)
        # x*l - softplus(l) = log sigmoid(l) if x=1 else log(1 - sigmoid(l))
        per_dim = ad.sub(ad.mul(logits, x), ad.softplus(logits))
        return ad.tsum(per_dim, axis=1)

    # already normalized, so the unnormalized view is the same thing
    log_mass_unnorm_t = log_mass_t

    def config(self) -> dict:
        return {"n_dims": self.n_dims, "hidden": list(self.hidden)}


def fit(
    model,
    objective: Callable[[object, np.ndarray, np.random.Generator], object],
    samples: np.ndarray,
    iterations: int,
    batch_size: int = 128,
    lr: float = 5e-4,
    seed: int = 0,
    log_every: int = 100,
    callback: Callable[[int, float], None] | None = None,
) -> list[tuple[int, float, float]]:
    """Minibatch Adam loop; returns (iteration, objective value, wall seconds) rows.

    The objective is called as objective(model, batch, rng) and must
    return an object with ``value`` and ``grads``. Non-finite loss or
    gradient aborts with the iteration number.
    """
    samples = np.asarray(samples, dtype=np.int64)
    rng = np.random.default_rng(seed)
    opt = ad.Adam(lr=lr)
    rows: list[tuple[int, float, float]] = []
    start = time.perf_counter()
    for it in range(1, iterations + 1):
        # np.take gives the same rows as samples[idx], faster on large arrays
        batch = np.take(samples, rng.integers(0, samples.shape[0], size=batch_size), axis=0)
        model.zero_grad()
        out = objective(model, batch, rng)
        if not np.isfinite(out.value):
            raise FloatingPointError(f"non-finite objective at iteration {it}")
        try:
            opt.step(model.params, out.grads)
        except FloatingPointError as exc:
            raise FloatingPointError(f"iteration {it}: {exc}") from exc
        if it == 1 or it == iterations or it % log_every == 0:
            rows.append((it, out.value, time.perf_counter() - start))
        if callback is not None:
            callback(it, out.value)
    return rows


_MODEL_KINDS = {
    "logit_table": LogitTableModel,
    "score_net": ScoreNetModel,
    "masked_ar": MaskedARModel,
}


def _build_from_config(kind: str, config: dict, seed: int):
    if kind == "logit_table":
        return LogitTableModel(DiscreteSpace(tuple(config["dims"])), seed=seed)
    if kind == "score_net":
        return ScoreNetModel(
            DiscreteSpace(tuple(config["dims"])),
            degree=config["degree"],
            hidden=config["hidden"],
            seed=seed,
            one_hot=config.get("one_hot", False),
        )
    if kind == "masked_ar":
        return MaskedARModel(config["n_dims"], hidden=config["hidden"], seed=seed)
    raise ValueError(f"unknown model kind {kind!r}")


def _model_header(model) -> dict:
    return {
        "kind": model.kind,
        "seed": model.seed,
        "config": model.config(),
        "params": [[name, list(p.data.shape)] for name, p in model.params.items()],
    }


def save_checkpoint(path, model_or_models) -> None:
    """JSON header line + little-endian float64 parameter payload.

    A list of models is stored as a single "bundle" checkpoint (used by
    annealed sampling schedules).
    """
    from .io import atomic_write_bytes

    models = model_or_models if isinstance(model_or_models, (list, tuple)) else [model_or_models]
    if len(models) == 1:
        header = _model_header(models[0])
    else:
        header = {"kind": "bundle", "models": [_model_header(m) for m in models]}
    payload = b"".join(
        p.data.astype("<f8").tobytes() for m in models for p in m.params.values()
    )
    atomic_write_bytes(path, json.dumps(header).encode("utf-8") + b"\n" + payload)


class CheckpointError(ValueError):
    """A checkpoint whose payload does not match its header."""


def _load_one(header: dict, raw: bytes, offset: int):
    model = _build_from_config(header["kind"], header["config"], header["seed"])
    expected = [(name, tuple(shape)) for name, shape in header["params"]]
    actual = [(name, p.data.shape) for name, p in model.params.items()]
    if expected != actual:
        raise CheckpointError(f"checkpoint parameter layout {expected} != model layout {actual}")
    for name, p in model.params.items():
        count = p.data.size
        if offset + count * 8 > len(raw):
            raise CheckpointError(
                f"checkpoint payload is {len(raw)} bytes, too short for parameter {name!r}"
            )
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        p.data = arr.reshape(p.data.shape).astype(np.float64)
        offset += count * 8
    return model, offset


def load_checkpoint(path):
    """Inverse of :func:`save_checkpoint`; returns a model or a list. A payload
    shorter or longer than its header lists raises :class:`CheckpointError`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        raw = fh.read()
    bundle = header.get("kind") == "bundle"
    models, offset = [], 0
    for sub in header["models"] if bundle else [header]:
        model, offset = _load_one(sub, raw, offset)
        models.append(model)
    if offset != len(raw):
        raise CheckpointError(f"checkpoint has {len(raw) - offset} trailing bytes")
    return models if bundle else models[0]
