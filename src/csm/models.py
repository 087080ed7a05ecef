"""Trainable score and density models.

Every model is a :class:`ScoreModel`: it gives the Concrete score
c(x)_i = p(N(x)_i)/p(x) - 1 through one tape method, ``score_entries_t``,
from which the base class derives ``score_entries`` and ``score_vector``.

- density models expose an unnormalized log-mass and imply their score
  through neighbor ratios exp(log q(x_n) - log q(x)) - 1, one tape node: a
  logit table over an enumerable space, and a masked autoregressive
  network over binary dimensions;
- a feed-forward score network outputs the score vector directly and
  only works on fixed-degree structures.

The two networks share one tanh MLP (:func:`_mlp_params`, :func:`_mlp_t`).
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
from .exact import SCORE_BLOCK, TabularDistribution
from .graphs import DiscreteSpace, NeighborhoodStructure, _indptr, csr_rows


def _mlp_params(widths: Sequence[int], rng: np.random.Generator) -> dict[str, Tensor]:
    """Weights ``w{l}`` drawn N(0, 1/fan_in) layer by layer and zero biases ``b{l}``,
    in the order w0, b0, w1, b1, ... that the forward passes slice."""
    params = {}
    for layer, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        params[f"w{layer}"] = ad.parameter(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
        params[f"b{layer}"] = ad.parameter(np.zeros(fan_out))
    return params


def _mlp_t(h, weights: Sequence, biases: Sequence) -> Tensor:
    """Affine layers with tanh between them and none after the last."""
    for layer, (w, b) in enumerate(zip(weights, biases)):
        if layer:
            h = ad.ttanh(h)
        h = ad.add(ad.matmul(h, w), b)
    return h


class ScoreModel:
    """Base of every model: the score surface built on ``score_entries_t``."""

    kind: str
    space: DiscreteSpace
    params: dict[str, Tensor]
    seed: int

    def score_entries_t(self, structure: NeighborhoodStructure, states, positions, dst=None) -> Tensor:
        """Differentiable score entries c(states[j])[positions[j]], where
        ``states`` holds states (m, D) or, on an enumerable space, flat
        indices (m,). A caller holding the flat indices ``dst`` of the
        neighbors N(states[j])[positions[j]] passes them to spare the lookup."""
        raise NotImplementedError

    def score_entries(self, structure, states, positions) -> np.ndarray:
        return self.score_entries_t(structure, states, positions).data

    def score_vector(self, structure: NeighborhoodStructure, x: Sequence[int] | np.ndarray) -> np.ndarray:
        """Score vectors of a state (D,) or a block of states (m, D), concatenated
        row after row: the CSR data of the score over those rows. A row outside
        the space raises the ``ValueError`` that names it."""
        space = structure.space
        states = np.atleast_2d(np.asarray(x, dtype=np.int64))
        if states.shape[1] != space.ndim or not ((states >= 0) & (states < space.dims)).all():
            for state in states.tolist():
                space.validate_state(state)
        row, pos = csr_rows(_indptr(structure.degrees_of(states)))
        return self.score_entries(structure, states[row], pos)


class DensityModel(ScoreModel):
    """Base for models exposing unnormalized log-mass over states."""

    def log_mass_unnorm_t(self, states: np.ndarray) -> Tensor:
        raise NotImplementedError

    def log_mass_t(self, states: np.ndarray) -> Tensor:
        """Exactly normalized log-probability of each state (tape)."""
        raise NotImplementedError

    def log_mass_unnorm(self, states: np.ndarray) -> np.ndarray:
        """Log-mass of states (m, D), ``SCORE_BLOCK`` states per tape pass."""
        states = np.asarray(states, dtype=np.int64)
        return np.concatenate([np.empty(0)] + [self.log_mass_unnorm_t(states[i:i + SCORE_BLOCK]).data
                                               for i in range(0, len(states), SCORE_BLOCK)])

    def score_entries_t(self, structure: NeighborhoodStructure, states, positions, dst=None) -> Tensor:
        space = structure.space
        states, m = space.as_states(states), len(states)
        nbr = structure.neighbor_states_at(states, positions) if dst is None else space.states_of(dst)
        pair = np.concatenate([nbr, states])
        if space.total_states > 2**63:  # beyond int64 flat indices
            return ad.ratio_m1(self.log_mass_unnorm_t(pair), np.arange(m), np.arange(m, 2 * m))
        # one log-mass row per distinct state: sources and batch states repeat
        _, first, inv = np.unique(space.indices_of(pair), return_index=True, return_inverse=True)
        return ad.ratio_m1(self.log_mass_unnorm_t(pair[first]), inv[:m], inv[m:])

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

    def __init__(self, space: DiscreteSpace, seed: int = 0):
        n = space.require_enumerable("logit table")
        self.space = space
        self.seed = seed
        self.params = {"logits": ad.parameter(np.zeros(n))}

    @classmethod
    def from_distribution(cls, p) -> "LogitTableModel":
        """The exact oracle of a :class:`~csm.exact.TabularDistribution`:
        logits log p, so entry i of the score at x is p(N_i(x))/p(x) - 1."""
        if not p.strictly_positive:
            state = p.space.state_of(int(np.argmin(p.mass)))
            raise ValueError(f"oracle needs a strictly positive distribution; zero mass at {state}")
        model = cls(p.space)
        model.logits.data = np.log(p.mass)
        return model

    @property
    def logits(self) -> Tensor:
        return self.params["logits"]

    def log_mass_unnorm_t(self, states: np.ndarray) -> Tensor:
        return ad.gather(self.logits, self.space.indices_of(states))

    def log_mass_unnorm(self, states: np.ndarray) -> np.ndarray:
        return self.logits.data[self.space.indices_of(states)]

    def score_entries_t(self, structure: NeighborhoodStructure, states, positions, dst=None) -> Tensor:
        src = np.asarray(states, dtype=np.int64)
        src = self.space.indices_of(src) if src.ndim == 2 else src
        if dst is None:
            dst = structure.neighbor_indices_at(src, np.asarray(positions, dtype=np.int64))
        return ad.ratio_m1(self.logits, dst, src)

    def log_mass_t(self, states: np.ndarray) -> Tensor:
        lse = ad.logsumexp(self.logits)
        return ad.sub(self.log_mass_unnorm_t(states), lse)

    def distribution(self):
        z = self.logits.data - self.logits.data.max()
        mass = np.exp(z)
        return TabularDistribution(self.space, mass / mass.sum())

    def config(self) -> dict:
        return {"dims": list(self.space.dims)}


class ScoreNetModel(ScoreModel):
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
        self.params = _mlp_params((in_dim, *self.hidden, degree), np.random.default_rng(seed))

    def encode(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=np.int64)
        if self.one_hot:
            return np.concatenate([np.eye(n)[states[:, d]] for d, n in enumerate(self.space.dims)], axis=1)
        dims = np.asarray(self.space.dims, dtype=np.float64)
        return 2.0 * states / (dims - 1.0) - 1.0

    def forward_t(self, encoded: np.ndarray) -> Tensor:
        layers = list(self.params.values())
        return _mlp_t(encoded, layers[0::2], layers[1::2])

    def score_entries_t(self, structure: NeighborhoodStructure, states, positions, dst=None) -> Tensor:
        deg = structure.uniform_degree()
        if deg != self.degree:
            raise ValueError(f"score net emits {self.degree} entries but structure degree is {deg}")
        states = structure.space.as_states(states)
        out = self.forward_t(self.encode(states))
        return ad.take_pairs(out, np.arange(states.shape[0]), np.asarray(positions, dtype=np.int64))

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
        self.params = _mlp_params((n_dims, *self.hidden, n_dims), np.random.default_rng(seed))
        prev_deg = np.arange(1, n_dims + 1)
        self._masks: list[np.ndarray] = []
        for width in self.hidden:
            # hidden degrees cycle 1..D-1 (all-1 when D == 1, which
            # disconnects everything: a single bit has no parents)
            deg = (np.arange(width) % max(n_dims - 1, 1)) + 1
            self._masks.append((deg[None, :] >= prev_deg[:, None]).astype(np.float64))
            prev_deg = deg
        out_deg = np.arange(1, n_dims + 1)
        self._masks.append((out_deg[None, :] > prev_deg[:, None]).astype(np.float64))

    def cond_logits_t(self, states: np.ndarray) -> Tensor:
        layers = list(self.params.values())
        weights = [ad.mul(w, mask) for w, mask in zip(layers[0::2], self._masks)]
        return _mlp_t(np.asarray(states, dtype=np.float64), weights, layers[1::2])

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


LOG_EVERY = 100


def fit(
    model,
    objective: Callable[[object, np.ndarray, np.random.Generator], object],
    samples: np.ndarray,
    iterations: int,
    batch_size: int = 128,
    lr: float = 5e-4,
    seed: int = 0,
) -> list[tuple[int, float, float]]:
    """Minibatch Adam loop; returns (iteration, objective value, wall seconds)
    rows at the first and last iteration and every ``LOG_EVERY``-th.

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
        out = objective(model, batch, rng)
        if not np.isfinite(out.value):
            raise FloatingPointError(f"non-finite objective at iteration {it}")
        try:
            opt.step(model.params, out.grads)
        except FloatingPointError as exc:
            raise FloatingPointError(f"iteration {it}: {exc}") from exc
        if it == 1 or it == iterations or it % LOG_EVERY == 0:
            rows.append((it, out.value, time.perf_counter() - start))
    return rows


_MODEL_KINDS = {cls.kind: cls for cls in (LogitTableModel, ScoreNetModel, MaskedARModel)}


def _build_from_config(kind: str, config: dict, seed: int):
    """The model of a checkpoint header: ``config()`` as constructor keywords."""
    if kind not in _MODEL_KINDS:
        raise CheckpointError(f"unknown model kind {kind!r}; expected one of {sorted(_MODEL_KINDS)}")
    cls = _MODEL_KINDS[kind]
    kwargs = dict(config, seed=seed)
    if "dims" in kwargs:
        kwargs["space"] = DiscreteSpace(tuple(kwargs.pop("dims")))
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise CheckpointError(f"checkpoint config {config} does not fit {kind!r}: {exc}") from exc


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
    """A checkpoint whose header is not JSON, names an unknown kind or a config
    that does not fit it, or lists parameters its payload does not match."""


def _load_one(header: dict, raw: bytes, offset: int):
    model = _build_from_config(header["kind"], header["config"], header["seed"])
    expected = [(name, tuple(shape)) for name, shape in header["params"]]
    actual = [(name, p.data.shape) for name, p in model.params.items()]
    if expected != actual:
        lacks = sorted(set(model.config()) - set(header["config"]))
        raise CheckpointError(
            f"checkpoint parameter layout {expected} != model layout {actual}"
            + (f"; its config lacks {lacks}, which took constructor defaults" if lacks else "")
        )
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
    """Inverse of :func:`save_checkpoint`; returns a model or a list. A bad
    header, or a payload shorter or longer than its header lists, raises
    :class:`CheckpointError`."""
    with open(path, "rb") as fh:
        line, raw = fh.readline(), fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"checkpoint header is not JSON: {exc}") from None
    bundle = header.get("kind") == "bundle"
    models, offset = [], 0
    for sub in header["models"] if bundle else [header]:
        model, offset = _load_one(sub, raw, offset)
        models.append(model)
    if offset != len(raw):
        raise CheckpointError(f"checkpoint has {len(raw) - offset} trailing bytes")
    return models if bundle else models[0]
