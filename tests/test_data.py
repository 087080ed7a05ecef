"""Dataset generators and CSV ingestion."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from csm.data import (
    BACKGROUND_MIX,
    CHECKER_BLUR_BINS,
    CHECKER_CELLS,
    DRAW_CHUNK,
    FIELD_HALF_WIDTH,
    Dataset,
    _quadrature_masses,
    _rings_density,
    gen_1d_toy,
    gen_2d_toy,
    load_tabular_csv,
    toy_1d_masses,
)
from csm.exact import TabularDistribution, kl_and_tv
from csm.graphs import DiscreteSpace
from csm.io import atomic_write, write_samples_csv


def _reference_checkerboard(n, seed, bins=91):
    """The one-shot checkerboard draw, background mix and quantizer that the
    chunked ones replace: whole-array RNG calls in the same order."""
    rng = np.random.default_rng(seed)
    on = [(i, j) for i in range(CHECKER_CELLS) for j in range(CHECKER_CELLS) if (i + j) % 2 == 0]
    u = np.asarray(on, dtype=np.float64)[rng.integers(0, len(on), size=n)]
    u += rng.random((n, 2))
    u /= CHECKER_CELLS
    z = rng.standard_normal((n, 2))
    z *= CHECKER_BLUR_BINS / bins
    u += z
    u *= 2.0
    u -= 1.0
    u *= FIELD_HALF_WIDTH
    background = rng.random(n) < BACKGROUND_MIX
    u[background] = (rng.random((int(background.sum()), 2)) * 2.0 - 1.0) * FIELD_HALF_WIDTH
    u += FIELD_HALF_WIDTH
    u /= 2.0 * FIELD_HALF_WIDTH
    u *= bins
    np.floor(u, out=u)
    return np.clip(u.astype(np.int64), 0, bins - 1)


def _reference_load(path, header=False):
    """The per-value ``int()`` line loop that the byte-level parse replaces."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if header and lineno == 1:
                continue
            line = raw.strip()
            if not line:
                continue
            values = [int(v) for v in line.split(",")]
            assert all(v in (0, 1) for v in values)
            assert width is None or len(values) == width
            width = len(values)
            rows.append(values)
    return np.asarray(rows, dtype=np.int64)


def _reference_write(path, samples):
    """The numpy-row writer that the ``tolist`` one replaces."""
    samples = np.asarray(samples, dtype=np.int64)
    lines = [",".join(str(v) for v in row) for row in samples]
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


class TestToy1D:
    def test_masses_are_normalized_and_positive(self):
        m = toy_1d_masses()
        assert m.shape == (16,)
        assert m.sum() == pytest.approx(1.0, abs=1e-12)
        assert m.min() > 0

    def test_samples_in_range(self):
        ds = gen_1d_toy(5000, seed=0)
        assert ds.samples.min() >= 0 and ds.samples.max() < 16

    def test_seed_determinism(self):
        a = gen_1d_toy(1000, seed=3)
        b = gen_1d_toy(1000, seed=3)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_empirical_concentration(self):
        """Large-sample histogram sits close to the stored masses."""
        ds = gen_1d_toy(100_000, seed=1)
        emp = TabularDistribution.from_samples(ds.space, ds.samples)
        _, tv = kl_and_tv(emp, ds.ground_truth)
        assert tv < 0.02


class TestToy2D:
    @pytest.mark.parametrize("name", ["checkerboard", "spirals", "rings"])
    def test_samples_in_range_and_truth_normalized(self, name):
        ds = gen_2d_toy(name, 20_000, seed=0)
        assert ds.samples.min() >= 0 and ds.samples.max() < 91
        assert ds.ground_truth.mass.sum() == pytest.approx(1.0, abs=1e-10)
        assert ds.ground_truth.strictly_positive

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            gen_2d_toy("moons", 100)

    def test_checkerboard_off_square_interiors_nearly_empty(self):
        """Cells beyond the blur band of any square edge stay at the floor."""
        ds = gen_2d_toy("checkerboard", 100_000, seed=0)
        t = ds.ground_truth.mass.reshape(91, 91)
        centers = (np.arange(91) + 0.5) / 91
        cell = np.floor(4 * centers).astype(int)
        # distance to the nearest quarter boundary, in bins
        dist = np.minimum(centers - cell / 4, (cell + 1) / 4 - centers) * 91
        interior = dist > 2.5
        off = ((cell[:, None] + cell[None, :]) % 2 == 1) & interior[:, None] & interior[None, :]
        assert t[off].sum() < 0.01
        on = ((cell[:, None] + cell[None, :]) % 2 == 0) & interior[:, None] & interior[None, :]
        assert t[off].max() < 0.01 * t[on].mean()
        # and the sampled data agrees with the construction
        emp = TabularDistribution.from_samples(ds.space, ds.samples)
        assert emp.mass.reshape(91, 91)[off].sum() < 0.01

    @pytest.mark.parametrize("name", ["checkerboard", "rings"])
    def test_histogram_matches_analytic_truth(self, name):
        """1e6 draws land within TV 0.03 of the quadrature ground truth."""
        ds = gen_2d_toy(name, 1_000_000, seed=2)
        emp = TabularDistribution.from_samples(ds.space, ds.samples)
        _, tv = kl_and_tv(emp, ds.ground_truth)
        assert tv < 0.03, tv

    def test_spirals_histogram_matches_truth(self):
        ds = gen_2d_toy("spirals", 1_000_000, seed=3)
        emp = TabularDistribution.from_samples(ds.space, ds.samples)
        _, tv = kl_and_tv(emp, ds.ground_truth)
        assert tv < 0.03, tv

    def test_quadrature_truth_is_computed_once_and_read_only(self):
        first = _quadrature_masses(_rings_density, 13)
        assert _quadrature_masses(_rings_density, 13) is first
        assert not first.flags.writeable and first.sum() == pytest.approx(1.0, abs=1e-12)
        truth = gen_2d_toy("rings", 100, bins=13, seed=0).ground_truth.mass
        np.testing.assert_allclose(truth, (1.0 - BACKGROUND_MIX) * first + BACKGROUND_MIX / 169, rtol=1e-12)

    @pytest.mark.parametrize("name,n,seed,digest", [
        ("checkerboard", 200_000, 3, "ab099dc596416f4dcc134d594c39899834584be9757799898f0b47b236cf2fac"),
        ("rings", 50_000, 1, "2ad33fe9e417380d079eca09bb6f06bcb32943f000abd841abd641e03b1137ca"),
        ("spirals", 20_000, 2, "7be9ba5c551e049983f99ae226c481043031e2a9ba05d8ee653e4acda05e1b4b"),
    ], ids=["checkerboard", "rings", "spirals"])
    def test_seeded_samples_are_pinned(self, name, n, seed, digest):
        """The seeded draws, bit for bit: RNG calls, their order and every float
        operation of the sampler, background mix and quantizer."""
        samples = gen_2d_toy(name, n, seed=seed).samples
        assert samples.dtype == np.int64 and samples.flags.c_contiguous
        assert hashlib.sha256(samples.tobytes()).hexdigest() == digest

    def test_checkerboard_peak_memory(self):
        """The draw peaks at the corner gather, the int64 cell indices beside
        the float points: 1.5x the output, which is floored in place."""
        gen_2d_toy("checkerboard", 1_000, seed=0)  # first-call set-up out of the trace
        tracemalloc.start()
        try:
            ds = gen_2d_toy("checkerboard", 1_000_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * ds.samples.nbytes, peak / ds.samples.nbytes

    @pytest.mark.parametrize("n", [5, 2 * DRAW_CHUNK + 3], ids=["n5", "two-chunks-plus-3"])
    def test_chunked_checkerboard_matches_one_shot_draw(self, n):
        """Chunked draws take the stream of one whole call, chunk by chunk."""
        expected = _reference_checkerboard(n, seed=7)
        ds = gen_2d_toy("checkerboard", n, seed=7)
        np.testing.assert_array_equal(ds.samples, expected)
        assert ds.samples.dtype == np.int64 and ds.samples.flags.c_contiguous

    def test_custom_bins(self):
        ds = gen_2d_toy("rings", 1000, bins=31, seed=0)
        assert ds.space.dims == (31, 31)
        assert ds.samples.max() < 31


class TestDatasetRange:
    @pytest.mark.parametrize("dims,row,dim", [
        ((2, 5, 4), (0, 5, 3), 1),
        ((2, 5, 4), (-1, 0, 3), 0),
        ((2, 5, 4), (1, 0, 4), 2),
        ((2, 5, 4), (2, 6, -2), 0),
        ((5, 5, 5), (4, 4, 5), 2),
        ((5, 5, 5), (0, -3, 0), 1),
    ])
    def test_out_of_range_names_first_bad_dimension(self, dims, row, dim):
        samples = np.array([[1, 4, 3], row, [0, 0, 0]])
        with pytest.raises(ValueError, match=f"out of range in dimension {dim}$"):
            Dataset(DiscreteSpace(dims), samples, name="t", seed=0)

    def test_bounds_are_inclusive_below_exclusive_above(self):
        space = DiscreteSpace((2, 5, 4))
        ds = Dataset(space, [[0, 0, 0], [1, 4, 3]], name="t", seed=0)
        assert ds.samples.dtype == np.int64
        Dataset(space, np.empty((0, 3), dtype=np.int64), name="empty", seed=0)


class TestTabularCsv:
    def test_load_simple(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1,1\n1,0,0\n")
        ds = load_tabular_csv(path)
        assert ds.space.dims == (2, 2, 2)
        np.testing.assert_array_equal(ds.samples, [[0, 1, 1], [1, 0, 0]])

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1,0,1\n")
        with pytest.raises(ValueError, match="2"):
            load_tabular_csv(path)

    def test_non_binary_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,2\n")
        with pytest.raises(ValueError, match="non-binary"):
            load_tabular_csv(path)

    def test_header_skip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,1\n")
        ds = load_tabular_csv(path, header=True)
        assert ds.samples.shape == (1, 2)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        space = DiscreteSpace((2, 2, 2, 2))
        ds = Dataset(space, rng.integers(0, 2, size=(50, 4)), name="t", seed=0)
        path = tmp_path / "rt.csv"
        write_samples_csv(path, ds.samples)
        back = load_tabular_csv(path)
        np.testing.assert_array_equal(back.samples, ds.samples)

    @pytest.mark.parametrize("width", [1, 2, 12])
    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("style", ["plain", "crlf", "blanks", "spaced", "no-final-newline"])
    def test_matches_line_loop(self, tmp_path, width, header, style):
        """Generated files load to the same array as the ``int()`` line loop."""
        rng = np.random.default_rng(width * 10 + header)
        bits = rng.integers(0, 2, size=(40, width))
        sep = " , " if style == "spaced" else ","
        lines = [sep.join(map(str, row)) for row in bits.tolist()]
        if style == "spaced":
            lines = [f"\t{line}  " for line in lines]
        if style == "blanks":
            for at in (0, 7, 7, 20):
                lines.insert(at, " \t " if at == 7 else "")
        if header:
            lines.insert(0, ",".join(f"x{k}" for k in range(width)))
        text = ("\r\n" if style == "crlf" else "\n").join(lines)
        text += "" if style == "no-final-newline" else "\r\n" if style == "crlf" else "\n"
        path = tmp_path / "gen.csv"
        path.write_bytes(text.encode())
        got = load_tabular_csv(path, header=header).samples
        np.testing.assert_array_equal(got, _reference_load(path, header=header))
        np.testing.assert_array_equal(got, bits)
        assert got.dtype == np.int64

    @pytest.mark.parametrize("bad,problem", [
        ("0,x,1", "non-integer value"),
        ("0,1,2", "non-binary value"),
        ("0,1", "ragged row of length 2, expected 3"),
        ("1,0,1,1", "ragged row of length 4, expected 3"),
        ("1,,0", "non-integer value"),
    ])
    def test_first_bad_line_is_named(self, tmp_path, bad, problem):
        """The bad line sits after a header, a blank line and two good rows;
        later bad lines do not change the message."""
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b,c\n\n0,1,1\n 1 , 0 , 0\n{bad}\n0,2\n1\n")
        with pytest.raises(ValueError) as exc:
            load_tabular_csv(path, header=True)
        assert str(exc.value) == f"{path}:5: {problem}"

    @pytest.mark.parametrize("text", ["", "\n \n", "a,b\n", "a,b\n\n\t\n"])
    def test_no_data_rows(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_tabular_csv(path, header=text.startswith("a"))
        assert str(exc.value) == f"{path}: no data rows"

    @pytest.mark.parametrize("field,problem", [
        ("+1", "non-integer value"),
        ("1_0", "non-integer value"),
        ("\u0661", "non-integer value"),  # ARABIC-INDIC DIGIT ONE
        ("01", "non-binary value"),
        ("-1", "non-binary value"),
    ])
    def test_only_single_ascii_digits(self, tmp_path, field, problem):
        """Spellings ``int()`` reads as 0 or 1 but that are not a lone digit."""
        path = tmp_path / "spelling.csv"
        path.write_text(f"0,1\n1,{field}\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_tabular_csv(path)
        assert str(exc.value) == f"{path}:2: {problem}"


class TestSamplesCsv:
    def test_bytes_match_row_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        samples = rng.integers(0, 1000, size=(300, 3))
        samples[0] = [0, 9, 10]
        write_samples_csv(tmp_path / "new.csv", samples)
        _reference_write(tmp_path / "old.csv", samples)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_empty_block_writes_empty_file(self, tmp_path):
        write_samples_csv(tmp_path / "e.csv", np.empty((0, 2), dtype=np.int64))
        assert (tmp_path / "e.csv").read_bytes() == b""
