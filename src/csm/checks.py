"""Verification suites behind ``csm check`` and the acceptance tests.

Each suite measures an invariant of the library against an independent
oracle (exhaustive enumeration, analytic formulas, convolution) and
returns pass/fail records with the measured value and its tolerance.
Failures are reported, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import objectives as obj
from .denoise import make_ratio_fn, posterior_weights, recover_stein_score
from .exact import TabularDistribution, kl_and_tv, reconstruct_density, scaled_score_limit
from .graphs import DiscreteSpace, build_reverse_index, build_structure
from .models import LogitTableModel
from .samplers import run_chain


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name} measured={self.measured:.3e} tol={self.tolerance:.3e}{extra}"


def _round_trip_spaces():
    return [
        ("chain", build_structure("chain", DiscreteSpace((48,)))),
        ("cycle", build_structure("cycle", DiscreteSpace((48,)))),
        ("star", build_structure("star", DiscreteSpace((32,)))),
        ("grid", build_structure("grid", DiscreteSpace((8, 8)))),
        ("complete", build_structure("complete", DiscreteSpace((24,)))),
    ]


def completeness_suite(seed: int = 0, n_dists: int = 50, tol: float = 1e-10) -> list[CheckResult]:
    """Score -> reconstruct round trips on every structure kind."""
    rng = np.random.default_rng(seed)
    results = []
    for kind, structure in _round_trip_spaces():
        worst = 0.0
        for _ in range(n_dists):
            p = TabularDistribution.random_positive(structure.space, rng)
            oracle = LogitTableModel.from_distribution(p)
            recon = reconstruct_density(lambda s: oracle.score_vector(structure, s), structure)
            worst = max(worst, float(np.abs(recon.mass - p.mass).max()))
        results.append(
            CheckResult(f"completeness_{kind}", worst < tol, worst, tol, f"{n_dists} round trips")
        )
    return results


def equivalence_suite(seed: int = 0, tol: float = 1e-8) -> list[CheckResult]:
    """The exact loss and its two-term expansion differ by a constant."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(10):
        space = DiscreteSpace((int(rng.integers(6, 20)),))
        kind = ("cycle", "chain", "star", "complete")[trial % 4]
        structure = build_structure(kind, space)
        p = TabularDistribution.random_positive(space, rng)
        for _ in range(10):
            a = LogitTableModel(space)
            b = LogitTableModel(space)
            a.params["logits"].data = rng.standard_normal(space.total_states)
            b.params["logits"].data = rng.standard_normal(space.total_states)
            dl = obj.csm_loss_exact(a, p, structure).value - obj.csm_loss_exact(b, p, structure).value
            dj = obj.jcsm_exact(a, p, structure).value - obj.jcsm_exact(b, p, structure).value
            worst = max(worst, abs(dl - dj))
    return [CheckResult("objective_equivalence", worst < tol, worst, tol, "10 instances x 10 pairs")]


def _enumerated_j_stats(model, p, structure):
    """Exact means and per-draw variances of the three estimators."""
    space = structure.space
    n = space.total_states
    src, _, dst = structure.edges()
    c = model.score_vector(structure, space.all_states())
    degs = np.bincount(src, minlength=n)
    g1 = degs[src] * (c**2 + 2.0 * c)
    j1 = float((p.mass[src] * (c**2 + 2.0 * c)).sum())
    e_g1_sq = float((p.mass[src] / degs[src] * g1**2).sum())
    var1 = e_g1_sq - j1**2

    counts = np.bincount(dst, minlength=n)
    g2 = 2.0 * counts[dst] * c
    j2 = float((2.0 * p.mass[dst] * c).sum())
    e_g2_sq = float((p.mass[dst] / counts[dst] * g2**2).sum())
    var2 = e_g2_sq - j2**2

    var2s = None
    if structure.kind in ("chain", "cycle", "grid"):
        ndim = space.ndim if structure.kind == "grid" else 1
        states = space.all_states()
        # g(x, d) = ndim * sum of 2 c(y)_i over incoming edges along d
        per = np.zeros((n, ndim))
        if structure.kind == "grid":
            changed = np.argmax(space.states_of(src) != space.states_of(dst), axis=1)
        else:
            changed = np.zeros(src.size, dtype=np.int64)
        np.add.at(per, (dst, changed), 2.0 * c)
        g = ndim * per
        e_sq = float((p.mass[:, None] / ndim * g**2).sum())
        var2s = e_sq - j2**2
    return j1, var1, j2, var2, var2s


def _enumerated_mc_var(model, p, structure) -> float:
    """Exact per-draw variance of :func:`objectives.csm_mc_loss`, whose
    per-state value sums J1 over out-edges and J2 over in-edges."""
    n = structure.space.total_states
    src, _, dst = structure.edges()
    c = model.score_vector(structure, structure.space.all_states())
    g = np.bincount(src, c**2 + 2.0 * c, minlength=n) - np.bincount(dst, 2.0 * c, minlength=n)
    return float((p.mass * g**2).sum()) - float((p.mass * g).sum()) ** 2


def estimator_suite(seed: int = 0, draws: int = 100_000, sigmas: float = 3.0) -> list[CheckResult]:
    """Monte Carlo estimator means against enumerated values, 3 SE bands."""
    rng = np.random.default_rng(seed)
    cases = [
        ("chain", build_structure("chain", DiscreteSpace((40,)))),
        ("cycle", build_structure("cycle", DiscreteSpace((91,)))),
        ("star", build_structure("star", DiscreteSpace((25,)))),
        ("grid", build_structure("grid", DiscreteSpace((9, 9)))),
        ("grid_wrap", build_structure("grid", DiscreteSpace((9, 9)), boundary="wrap")),
    ]
    results = []

    def band(name: str, estimate: float, truth: float, var: float):
        """Pass when the estimate lies within ``sigmas`` standard errors of the truth."""
        err, tol = abs(estimate - truth), sigmas * np.sqrt(max(var, 0.0) / draws)
        results.append(CheckResult(f"{name}_unbiased_{label}", err < tol, err, tol))

    for label, structure in cases:
        space = structure.space
        p = TabularDistribution.random_positive(space, rng)
        model = LogitTableModel(space)
        model.params["logits"].data = 0.7 * rng.standard_normal(space.total_states)
        rev = build_reverse_index(structure)
        j1, var1, j2, var2, var2s = _enumerated_j_stats(model, p, structure)
        batch = p.sample(draws, rng)
        band("j1", obj.estimate_j1(model, batch, structure, rng).value, j1, var1)
        band("j2", obj.estimate_j2(model, batch, structure, rev, rng).value, j2, var2)
        if var2s is not None:
            band("j2_structured", obj.estimate_j2_structured(model, batch, structure, rng).value, j2, var2s)
        band("csm_mc", obj.csm_mc_loss(model, batch, structure, rev, rng).value, j1 - j2,
             _enumerated_mc_var(model, p, structure))
    return results


def stein_limit_suite(lo: float = 0.35, hi: float = 0.65) -> list[CheckResult]:
    """Forward-difference error halves when the step halves."""

    def gauss(x):
        return float(np.exp(-0.5 * np.sum(np.asarray(x) ** 2)))

    x = np.array([0.5, 2.0])
    truth = -x  # standard normal log-density gradient
    errs = [
        float(np.linalg.norm(scaled_score_limit(gauss, x, d) - truth))
        for d in (0.1, 0.05, 0.025)
    ]
    ratios = [errs[1] / errs[0], errs[2] / errs[1]]
    ok = all(lo < r < hi for r in ratios)
    return [
        CheckResult(
            "stein_limit_halving",
            ok,
            max(ratios),
            hi,
            f"ratios={ratios[0]:.3f},{ratios[1]:.3f}",
        )
    ]


def _convolved_density(p: TabularDistribution):
    """Oracle: explicit tent convolution of a tabular mass function."""
    states = p.space.all_states().astype(np.float64)

    def density(x_tilde: np.ndarray) -> float:
        u = np.asarray(x_tilde, dtype=np.float64)[None, :] - states
        tents = np.maximum(0.0, 1.0 - np.abs(u)).prod(axis=1)
        return float((p.mass * tents).sum())

    return density


def denoise_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    # integer-point ratio preservation under tent convolution
    p = TabularDistribution.random_positive(DiscreteSpace((12,)), rng)
    conv = _convolved_density(p)
    worst = 0.0
    for i in range(12):
        for j in range(12):
            lhs = conv(np.array([float(i)])) / conv(np.array([float(j)]))
            rhs = p.mass[i] / p.mass[j]
            worst = max(worst, abs(lhs - rhs))
    results.append(CheckResult("tent_ratio_preservation", worst < 1e-12, worst, 1e-12))

    # posterior normalization across random points
    ratio = make_ratio_fn(p)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-0.999, 11.999, size=1)
        _, w = posterior_weights(x, ratio)
        worst = max(worst, abs(float(w.sum()) - 1.0))
    results.append(CheckResult("posterior_normalization", worst < 1e-12, worst, 1e-12))

    # recovered score against the numerical derivative of the convolution
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        x = float(rng.uniform(0.05, 10.95))
        if abs(x - round(x)) < 10 * h:
            x += 0.01
        s = recover_stein_score(np.array([x]), ratio)[0]
        num = (np.log(conv(np.array([x + h]))) - np.log(conv(np.array([x - h])))) / (2 * h)
        worst = max(worst, abs(s - num))
    results.append(CheckResult("stein_recovery_vs_convolution", worst < 1e-6, worst, 1e-6))
    return results


def mh_suite(seed: int = 0, steps: int = 100_000, burn_in: int = 10_000, tol: float = 0.02, model: LogitTableModel | None = None) -> list[CheckResult]:
    """Chain histogram against the model's normalized distribution."""
    space = DiscreteSpace((16,)) if model is None else model.space
    if model is None:
        model = LogitTableModel(space)
        model.params["logits"].data = np.random.default_rng(seed).standard_normal(
            space.total_states
        )
    structure = build_structure("cycle", space)
    samples, chain = run_chain(
        model, structure, (0,) * space.ndim, steps, burn_in=burn_in, seed=seed
    )
    empirical = TabularDistribution.from_samples(space, samples)
    _, tv = kl_and_tv(empirical, model.distribution())
    return [
        CheckResult(
            "mh_stationary_tv", tv < tol, tv, tol, f"acceptance={chain.acceptance_rate:.2f}"
        )
    ]


_SUITE_FNS = {
    "completeness": completeness_suite,
    "estimators": estimator_suite,
    "equivalence": equivalence_suite,
    "stein_limit": lambda seed: stein_limit_suite(),
    "denoise": denoise_suite,
    "mh": mh_suite,
}
SUITES = tuple(_SUITE_FNS)


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    return _SUITE_FNS[name](seed)
