"""Synthetic dataset generators and byte-level binary CSV ingestion.

Each generator stores its exact ground-truth distribution alongside the
samples so tests compare against our construction, not against figures.
The 2-D toys are documented closed forms on [-2.5, 2.5]^2 mapped onto a
bins x bins grid:

- checkerboard: uniform on the "on" squares of a 4x4 alternating
  pattern, softened by an isotropic Gaussian of 0.7 bin widths (the
  blurred square wave has a separable closed form, so bin masses are
  exact 1-D quadratures);
- rings: two circles of radius 1 and 2 with Gaussian radial profile
  sigma = 0.1, Cartesian density sum_k 0.5 phi_sigma(|x| - R_k) / (2 pi |x|);
- spirals: two Archimedean arms rho = 0.25 + 1.95 t, phi = pi/4 + 3 pi t
  for t ~ U(0, 1), arms offset by pi, isotropic Gaussian cross-section
  sigma = 0.1 (bin masses by midpoint quadrature, renormalized).

Every 2-D toy is mixed with a 1% uniform background, which keeps the
low-density regions qualitative (off checkerboard squares still receive
under 1% of the mass) while making the quantized distribution strictly
positive and its neighbor ratios bounded: ratio- and score-based
objectives are only well posed without structural zeros (the exact
module excludes them outright), and score-matched tables over bins with
unboundedly large neighbor ratios have no finite optimum to converge to.
The sub-bin checkerboard blur exists for the same reason and leaves the
pattern visually sharp at 91 bins.

Randomness comes exclusively from numpy's seeded PCG64 generator, so
regeneration with the same seed is bit-identical across platforms. Bulk
draws fill a reused ``DRAW_CHUNK``-row buffer, on the same stream as one
call; floored in place, the checkerboard peaks at 1.5x its int64 output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exact import TabularDistribution
from .graphs import DiscreteSpace

TOY_1D_CATEGORIES = 16
FIELD_HALF_WIDTH = 2.5  # the 2-D toys live on [-2.5, 2.5]^2
RING_RADII = (1.0, 2.0)
RING_SIGMA = 0.1
SPIRAL_SIGMA = 0.1
SPIRAL_QUAD = 600  # midpoint quadrature points along each spiral arm
CHECKER_CELLS = 4
CHECKER_BLUR_BINS = 0.7  # checkerboard edge softening, in bin widths
QUAD_SUBDIV = 3  # midpoint quadrature points per bin edge for smooth toys
BACKGROUND_MIX = 0.01  # uniform background fraction mixed into the 2-D toys
DRAW_CHUNK = 1 << 16  # rows per chunked draw; chunks consume the stream as one call does

TOY_2D_NAMES = ("checkerboard", "spirals", "rings")


@dataclass
class Dataset:
    space: DiscreteSpace
    samples: np.ndarray  # (N, D) int64
    ground_truth: TabularDistribution | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.int64)
        if self.samples.ndim != 2 or self.samples.shape[1] != self.space.ndim:
            raise ValueError("samples must be (N, D) matching the space")
        # two contiguous whole-array passes; per-column passes only to name a
        # breach or where the dimensions differ in size
        s, dims = self.samples, self.space.dims
        if s.size and (s.min() < 0 or s.max() >= min(dims)):
            bad = (s.min(axis=0) < 0) | (s.max(axis=0) >= np.asarray(dims))
            if bad.any():
                raise ValueError(f"sample coordinate out of range in dimension {int(bad.argmax())}")


def toy_1d_masses() -> np.ndarray:
    """Fixed two-mode categorical over 16 states, strictly positive."""
    k = np.arange(TOY_1D_CATEGORIES, dtype=np.float64)
    raw = (
        np.exp(-((k - 4.0) ** 2) / (2.0 * 1.5**2))
        + 0.85 * np.exp(-((k - 11.0) ** 2) / (2.0 * 2.0**2))
        + 0.03
    )
    return raw / raw.sum()


def gen_1d_toy(n: int, seed: int = 0) -> Dataset:
    """Samples from the fixed 16-category mixture."""
    if n <= 0:
        raise ValueError("need a positive sample count")
    space = DiscreteSpace((TOY_1D_CATEGORIES,))
    truth = TabularDistribution(space, toy_1d_masses())
    rng = np.random.default_rng(seed)
    return Dataset(space, truth.sample(n, rng), ground_truth=truth)


def _quantize(points: np.ndarray, bins: int) -> np.ndarray:
    """Bin indices of field points, floored into ``points``' own bytes as int64."""
    out = points.view(np.int64)
    for lo in range(0, len(points), DRAW_CHUNK):  # a whole-array floor would copy its input
        part = points[lo : lo + DRAW_CHUNK]
        part += FIELD_HALF_WIDTH
        part /= 2.0 * FIELD_HALF_WIDTH
        part *= bins
        np.floor(part, out=out[lo : lo + DRAW_CHUNK], casting="unsafe")
    return np.clip(out, 0, bins - 1, out=out)


_phi_cdf = np.vectorize(lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0))))


def _checkerboard_marginals(bins: int) -> tuple[np.ndarray, np.ndarray]:
    """1-D quadratures of the blurred unit-square and square-wave factors.

    The hard density on the unit square is 1 + s(u) s(v) for the square
    wave s(u) = (-1)^floor(4u), so the Gaussian-blurred density stays
    separable; samples falling outside the square are folded into the
    edge bins, matching the clipping in :func:`_quantize`.
    """
    sigma = CHECKER_BLUR_BINS / bins
    sub = 24
    pts = (np.arange(bins * sub) + 0.5) / (bins * sub)
    # extend the end bins to catch the blur tails that quantize clips
    tail = np.linspace(-6 * sigma, 0, 200)
    width = 1.0 / (bins * sub)

    def box(u):
        return _phi_cdf(u / sigma) - _phi_cdf((u - 1.0) / sigma)

    def wave(u):
        total = np.zeros_like(u)
        for k in range(CHECKER_CELLS):
            lo, hi = k / CHECKER_CELLS, (k + 1) / CHECKER_CELLS
            total += (-1.0) ** k * (_phi_cdf((u - lo) / sigma) - _phi_cdf((u - hi) / sigma))
        return total

    m = box(pts).reshape(bins, sub).sum(axis=1) * width
    c = wave(pts).reshape(bins, sub).sum(axis=1) * width
    dt = tail[1] - tail[0]
    m[0] += np.trapezoid(box(tail), dx=dt)
    m[-1] += np.trapezoid(box(1.0 - tail), dx=dt)
    c[0] += np.trapezoid(wave(tail), dx=dt)
    c[-1] += np.trapezoid(wave(1.0 - tail), dx=dt)
    return m, c


def _checkerboard_masses(bins: int) -> np.ndarray:
    m, c = _checkerboard_marginals(bins)
    mass = np.outer(m, m) + np.outer(c, c)
    return (mass / mass.sum()).reshape(-1)


def _sample_checkerboard(n: int, rng: np.random.Generator, bins: int) -> np.ndarray:
    on = [(i, j) for i in range(CHECKER_CELLS) for j in range(CHECKER_CELLS) if (i + j) % 2 == 0]
    u = np.take(np.asarray(on, dtype=np.float64), rng.integers(0, len(on), size=n), axis=0)
    buf = np.empty((min(n, DRAW_CHUNK), 2))
    for lo in range(0, n, DRAW_CHUNK):  # the whole uniform block, then the normal block
        part = u[lo : lo + DRAW_CHUNK]
        part += rng.random(out=buf[: len(part)])
        part /= CHECKER_CELLS  # uniform in the cell
    for lo in range(0, n, DRAW_CHUNK):
        part = u[lo : lo + DRAW_CHUNK]
        z = rng.standard_normal(out=buf[: len(part)])
        z *= CHECKER_BLUR_BINS / bins
        part += z
    u *= 2.0
    u -= 1.0
    u *= FIELD_HALF_WIDTH
    return u


def _rings_density(points: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(points, axis=-1)
    r = np.maximum(r, 1e-12)
    out = np.zeros_like(r)
    for radius in RING_RADII:
        out += np.exp(-((r - radius) ** 2) / (2.0 * RING_SIGMA**2))
    return out / (2.0 * len(RING_RADII) * np.pi * r * RING_SIGMA * np.sqrt(2.0 * np.pi))


def _sample_rings(n: int, rng: np.random.Generator) -> np.ndarray:
    which = rng.integers(0, len(RING_RADII), size=n)
    radius = np.asarray(RING_RADII)[which] + RING_SIGMA * rng.standard_normal(n)
    angle = rng.random(n) * 2.0 * np.pi
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)


def _spiral_centers(t: np.ndarray, arm: np.ndarray) -> np.ndarray:
    rho = 0.25 + 1.95 * t
    phi = np.pi / 4.0 + 3.0 * np.pi * t + np.pi * arm
    return np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=-1)


def _spirals_density(points: np.ndarray) -> np.ndarray:
    t = (np.arange(SPIRAL_QUAD) + 0.5) / SPIRAL_QUAD
    out = np.zeros(points.shape[0])
    norm = 1.0 / (2.0 * np.pi * SPIRAL_SIGMA**2)
    for arm in (0.0, 1.0):
        centers = _spiral_centers(t, np.full(SPIRAL_QUAD, arm))  # (SPIRAL_QUAD, 2)
        # chunk the pairwise distances to bound memory
        for lo in range(0, points.shape[0], 4096):
            chunk = points[lo : lo + 4096]
            d2 = ((chunk[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            out[lo : lo + 4096] += 0.5 * norm * np.exp(-d2 / (2.0 * SPIRAL_SIGMA**2)).mean(axis=1)
    return out


def _sample_spirals(n: int, rng: np.random.Generator) -> np.ndarray:
    t = rng.random(n)
    arm = rng.integers(0, 2, size=n).astype(np.float64)
    return _spiral_centers(t, arm) + SPIRAL_SIGMA * rng.standard_normal((n, 2))


@functools.cache
def _quadrature_masses(density_fn, bins: int) -> np.ndarray:
    """Midpoint-rule bin masses of a smooth density, renormalized; cached, read-only."""
    step = 2.0 * FIELD_HALF_WIDTH / bins
    offsets = (np.arange(QUAD_SUBDIV) + 0.5) / QUAD_SUBDIV
    centers_1d = -FIELD_HALF_WIDTH + step * (np.arange(bins)[:, None] + offsets[None, :])
    xs = centers_1d.reshape(-1)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    dens = density_fn(grid).reshape(bins, QUAD_SUBDIV, bins, QUAD_SUBDIV)
    mass = dens.mean(axis=(1, 3)).reshape(-1)
    mass /= mass.sum()
    mass.flags.writeable = False
    return mass


def gen_2d_toy(name: str, n: int, bins: int = 91, seed: int = 0) -> Dataset:
    """Quantized draws from one of the documented 2-D toy densities."""
    if name not in TOY_2D_NAMES:
        raise ValueError(f"unknown 2-D toy {name!r}; expected one of {TOY_2D_NAMES}")
    if n <= 0:
        raise ValueError("need a positive sample count")
    if bins < 2:
        raise ValueError("need at least 2 bins per side")
    space = DiscreteSpace((bins, bins))
    rng = np.random.default_rng(seed)
    if name == "checkerboard":
        points = _sample_checkerboard(n, rng, bins)
        masses = _checkerboard_masses(bins)
    elif name == "rings":
        points = _sample_rings(n, rng)
        masses = _quadrature_masses(_rings_density, bins)
    else:
        points = _sample_spirals(n, rng)
        masses = _quadrature_masses(_spirals_density, bins)
    # background mixing happens in the continuous domain: a uniform draw
    # over the field quantizes to a uniform bin
    background = np.empty(n, dtype=bool)
    buf = np.empty(min(n, DRAW_CHUNK))
    for lo in range(0, n, DRAW_CHUNK):
        part = background[lo : lo + DRAW_CHUNK]
        np.less(rng.random(out=buf[: len(part)]), BACKGROUND_MIX, out=part)
    points[background] = (rng.random((int(background.sum()), 2)) * 2.0 - 1.0) * FIELD_HALF_WIDTH
    masses = (1.0 - BACKGROUND_MIX) * masses + BACKGROUND_MIX / masses.size
    truth = TabularDistribution(space, masses, normalize=True)
    return Dataset(space, _quantize(points, bins), ground_truth=truth)


def load_tabular_csv(path, header: bool = False) -> Dataset:
    """Rows of W comma-separated single ``0``/``1`` digits, one per line.

    Spaces, tabs and ``\\r`` around fields are dropped, blank lines are
    skipped and ``header`` skips line 1; the bytes are parsed in one
    vectorised pass. The first other line raises ``path:lineno:`` with
    ``non-integer value``, ``non-binary value`` (digits but a lone 0 or 1,
    as in ``01``) or ``ragged row of length L, expected W``; a file
    without rows raises ``path: no data rows``.
    """
    raw = Path(path).read_bytes()
    buf = np.frombuffer(raw + b"\n", dtype=np.uint8)
    buf = buf[(buf != ord(" ")) & (buf != ord("\t")) & (buf != ord("\r"))]
    ends = np.flatnonzero(buf == ord("\n"))  # line k is buf[starts[k]:ends[k]]
    starts = np.concatenate(([0], ends[:-1] + 1))
    lines = np.flatnonzero((ends > starts) & (np.arange(ends.size) >= header))  # data rows
    if not lines.size:
        raise ValueError(f"{path}: no data rows")
    width = int(ends[lines[0]] - starts[lines[0]] + 1) // 2  # W digits take 2W - 1 bytes
    ragged = np.flatnonzero(ends[lines] - starts[lines] != 2 * width - 1)
    n = int(ragged[0]) if ragged.size else lines.size  # rows before the first ragged one
    keep = np.ones(buf.size, dtype=bool)
    keep[: starts[lines[0]]] = False  # the header and leading blank lines
    keep[ends[starts == ends]] = False  # blank lines
    keep[starts[lines[n]] if n < lines.size else buf.size :] = False
    base = np.frombuffer(b"0," * (width - 1) + b"0\n", dtype=np.uint8)
    rows = buf[keep].reshape(n, 2 * width) - base  # 0 or 1 in digit columns, else 0
    bad = rows > (base == ord("0"))
    if n < lines.size or bad.any():
        lineno = int(lines[bad.any(1).argmax() if bad.any() else n])
        fields = [f.strip(b" \t\r") for f in raw.split(b"\n", lineno + 1)[lineno].split(b",")]
        problem = ("non-integer value" if not all(f.removeprefix(b"-").isdigit() for f in fields)
                   else "non-binary value" if any(f not in (b"0", b"1") for f in fields)
                   else f"ragged row of length {len(fields)}, expected {width}")
        raise ValueError(f"{path}:{lineno + 1}: {problem}")
    samples = rows[:, ::2].astype(np.int64)
    return Dataset(DiscreteSpace((2,) * samples.shape[1]), samples)
