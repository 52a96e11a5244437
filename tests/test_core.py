"""Tests for path traces, lengths, reparameterization and the m-norm."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaxcert.core as core
from relaxcert.core import (
    PathTrace,
    arc_length_reparameterize,
    as_complex_vector,
    check_piecewise_linear_family,
    norm_m,
    partition_length,
    write_trace_csv,
)


def line_trace(a, b, params):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ts = np.asarray(params, dtype=float)
    pts = np.array([(1 - t) * a + t * b for t in ts])
    return PathTrace(params=ts, points=pts, knots=[0, len(ts) - 1])


def polyline_trace(vertices, params_per_vertex=None, knots=None):
    """Piecewise-linear trace through vertices at uniform parameter spacing,
    with a knot at every vertex unless ``knots`` says otherwise."""
    verts = np.asarray(vertices, dtype=complex)
    n = len(verts)
    ts = np.linspace(0.0, 1.0, n) if params_per_vertex is None else np.asarray(params_per_vertex)
    return PathTrace(params=ts, points=verts,
                     knots=np.arange(n) if knots is None else knots)


def dense_polyline(vertices, per_piece=21):
    """Polyline through ``vertices`` with ``per_piece`` samples per piece and
    a knot at every vertex."""
    verts = np.asarray(vertices, dtype=complex)
    base = np.linspace(0, 1, len(verts))
    params, points = [0.0], [verts[0]]
    for i in range(len(verts) - 1):
        for t in np.linspace(base[i], base[i + 1], per_piece)[1:]:
            w = (t - base[i]) / (base[i + 1] - base[i])
            params.append(t)
            points.append((1 - w) * verts[i] + w * verts[i + 1])
    knots = np.arange(len(verts)) * (per_piece - 1)
    return PathTrace(params=np.array(params), points=np.array(points), knots=knots)


class TestPathTraceValidation:
    def test_rejects_short(self):
        with pytest.raises(ValueError):
            PathTrace(params=np.array([0.0]), points=np.zeros((1, 2)), knots=[0, 0])

    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError):
            PathTrace(params=np.array([0.0, 0.5]), points=np.zeros((2, 2)), knots=[0, 1])

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            PathTrace(params=np.array([0.0, 0.7, 0.7, 1.0]), points=np.zeros((4, 1)),
                      knots=[0, 3])

    def test_rejects_nan(self):
        pts = np.zeros((2, 1), dtype=complex)
        pts[1, 0] = np.nan
        with pytest.raises(ValueError):
            PathTrace(params=np.array([0.0, 1.0]), points=pts, knots=[0, 1])

    @pytest.mark.parametrize("knots", [
        [1, 4], [0, 3], [0, 2, 2, 4], [0, 3, 2, 4], [0, 2, 5], [-1, 0, 4], [0],
        [0.0, 4.0],
    ], ids=["skips-first", "skips-last", "repeats", "out-of-order",
            "past-the-end", "before-the-start", "one-knot", "not-indices"])
    def test_rejects_bad_knots(self, knots):
        with pytest.raises(ValueError, match="knots"):
            PathTrace(params=np.linspace(0, 1, 5), points=np.zeros((5, 1)),
                      knots=knots)

    def test_generated_rows_are_checked_finite(self):
        def piece(a, b):
            rows = np.zeros((b - a, 2), dtype=complex)
            rows[:, 1] = np.nan
            return rows

        tr = PathTrace.generated(np.linspace(0, 1, 5), [0, 2, 4], 2, [piece, piece])
        assert tr.dim == 2 and tr.segments == 2
        for read in (lambda: tr.points, lambda: tr.rows(1, 3), lambda: tr.end):
            with pytest.raises(ValueError, match="points must be finite"):
                read()

    def test_generated_knots_are_checked_at_construction(self):
        def piece(a, b):
            return np.zeros((b - a, 1), dtype=complex)

        with pytest.raises(ValueError, match="knots"):
            PathTrace.generated(np.linspace(0, 1, 5), [0, 3, 2, 4], 1, [piece] * 3)

    @pytest.mark.parametrize("count", [1, 3])
    def test_generated_needs_one_piece_per_segment(self, count):
        def piece(a, b):
            return np.zeros((b - a, 1), dtype=complex)

        with pytest.raises(ValueError, match=f"{count} pieces for 2 segments"):
            PathTrace.generated(np.linspace(0, 1, 5), [0, 2, 4], 1, [piece] * count)

    def test_generated_rows_come_from_their_segments(self):
        """Segment i makes rows knots[i] + a .. knots[i] + b - 1; a knot row
        comes from the earlier segment, and a range across knots joins the
        segments' parts in order."""
        def piece(seg):
            return lambda a, b: (100 * seg + np.arange(a, b, dtype=complex))[:, None]

        tr = PathTrace.generated(np.linspace(0, 1, 6), [0, 2, 3, 5], 1,
                                 [piece(0), piece(1), piece(2)])
        assert tr.points[:, 0].tolist() == [0, 1, 2, 101, 201, 202]
        assert tr.rows(2, 4)[:, 0].tolist() == [2, 101]
        assert tr.rows(3, 3).shape == (0, 1)

    def test_segments_counts_pieces(self):
        tr = PathTrace(params=np.linspace(0, 1, 5), points=np.zeros((5, 1)),
                       knots=[0, 1, 4])
        assert tr.segments == 2
        assert tr.knots.tolist() == [0, 1, 4]


class TestPartitionLength:
    def test_three_four_five_segment(self):
        tr = line_trace([0, 0], [3, 4], [0.0, 0.5, 1.0])
        assert partition_length(tr) == pytest.approx(5.0, abs=1e-12)

    def test_constant_path_zero_length(self):
        tr = polyline_trace([[1 + 1j], [1 + 1j], [1 + 1j]], knots=[0, 2])
        assert partition_length(tr) == 0.0

    def test_two_unit_segments(self):
        tr = polyline_trace([[0, 0], [1, 0], [1, 1]])
        assert partition_length(tr) == pytest.approx(2.0, abs=1e-12)

    def test_range_error(self):
        tr = line_trace([0], [1], [0.0, 1.0])
        with pytest.raises(ValueError):
            partition_length(tr, 0.5, 0.4)
        with pytest.raises(ValueError):
            partition_length(tr, -0.1, 1.0)

    def test_additive_split_at_sample(self):
        rng = np.random.default_rng(3)
        verts = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        tr = polyline_trace(verts)
        for mid in tr.params[1:-1]:
            total = partition_length(tr)
            split = partition_length(tr, 0.0, mid) + partition_length(tr, mid, 1.0)
            assert split == pytest.approx(total, rel=1e-12)

    def test_matches_declared_segment_lengths(self):
        rng = np.random.default_rng(11)
        verts = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        tr = polyline_trace(verts)
        expected = sum(np.linalg.norm(verts[i + 1] - verts[i]) for i in range(4))
        assert partition_length(tr) == pytest.approx(expected, rel=1e-10)


class TestArcLengthReparameterize:
    def test_joint_lands_at_half(self):
        # two unit segments, joint originally at t = 3/4
        tr = polyline_trace([[0, 0], [1, 0], [1, 1]], params_per_vertex=[0.0, 0.75, 1.0])
        rep = arc_length_reparameterize(tr)
        np.testing.assert_allclose(rep.evaluate(0.5), [1, 0], atol=1e-12)

    def test_constant_path_unchanged(self):
        tr = polyline_trace([[2 + 1j], [2 + 1j]])
        rep = arc_length_reparameterize(tr)
        assert rep is tr

    def test_unit_segment_equal_spacing(self):
        tr = line_trace([0], [1], [0.0, 0.25, 1.0])
        rep = arc_length_reparameterize(tr)
        np.testing.assert_allclose(rep.params, [0.0, 0.25, 1.0])
        # param now equals normalized arc length at every sample
        np.testing.assert_allclose(rep.params, [abs(p[0]) for p in rep.points], atol=1e-12)
        assert partition_length(rep) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            verts = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
            ts = np.sort(rng.uniform(0.05, 0.95, size=3))
            tr = polyline_trace(verts, params_per_vertex=[0.0, *ts, 1.0])
            once = arc_length_reparameterize(tr)
            twice = arc_length_reparameterize(once)
            np.testing.assert_allclose(twice.params, once.params, atol=1e-12)
            np.testing.assert_allclose(twice.points, once.points, atol=1e-12)

    def test_keeps_every_knot_point(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            tr = dense_polyline(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
            rep = arc_length_reparameterize(tr)
            assert rep.segments == 3
            np.testing.assert_array_equal(rep.points[rep.knots], tr.points[tr.knots])

    def test_collapsed_piece_drops_its_knot(self):
        # the middle piece stands still, so its samples merge into one
        tr = polyline_trace([[0], [1], [1], [3]], params_per_vertex=[0.0, 0.25, 0.5, 1.0])
        rep = arc_length_reparameterize(tr)
        assert rep.knots.tolist() == [0, 1, 2]
        np.testing.assert_array_equal(rep.points[:, 0], [0, 1, 3])

    def test_length_preserved(self):
        rng = np.random.default_rng(13)
        verts = rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4))
        tr = polyline_trace(verts)
        rep = arc_length_reparameterize(tr)
        assert partition_length(rep) == pytest.approx(partition_length(tr), rel=1e-12)


class TestNormM:
    def test_single_complex(self):
        assert norm_m([3 + 4j]) == pytest.approx(7.0)

    def test_zero_vector(self):
        assert norm_m(np.zeros(5, dtype=complex)) == 0.0

    def test_mixed_entries(self):
        assert norm_m([1 - 1j, -2]) == pytest.approx(4.0)

    def test_axioms_on_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = rng.integers(1, 8)
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            y = rng.normal(size=d) + 1j * rng.normal(size=d)
            alpha = rng.normal()
            assert norm_m(alpha * x) == pytest.approx(abs(alpha) * norm_m(x), abs=1e-12, rel=1e-12)
            assert norm_m(x + y) <= norm_m(x) + norm_m(y) + 1e-12
            assert norm_m(x) >= 0.0

    @given(
        st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=6),
        st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=200, deadline=None)
    def test_homogeneity_hypothesis(self, entries, alpha):
        x = np.array(entries)
        assert norm_m(alpha * x) == pytest.approx(abs(alpha) * norm_m(x), rel=1e-9, abs=1e-9)


class TestPiecewiseLinearFamily:
    def test_single_straight_segment(self):
        tr = line_trace([0, 0], [1, 2], np.linspace(0, 1, 11))
        rep = check_piecewise_linear_family([tr], max_segments=1)
        assert rep.passed
        assert rep.worst_deviation <= 1e-12

    def test_curved_trace_fails_with_witness(self):
        ts = np.linspace(0, 1, 21)
        pts = np.stack([ts, ts**2], axis=1).astype(complex)
        tr = PathTrace(params=ts, points=pts, knots=[0, 20])
        rep = check_piecewise_linear_family([tr], max_segments=1)
        assert not rep.passed
        assert "affine runs" in rep.note

    def test_empty_family_vacuous(self):
        rep = check_piecewise_linear_family([], max_segments=3)
        assert rep.passed
        assert "vacuous" in rep.note

    def test_segment_budget_enforced(self):
        tr = polyline_trace([[0, 0], [1, 0], [1, 1]])
        assert check_piecewise_linear_family([tr], max_segments=2).passed
        assert not check_piecewise_linear_family([tr], max_segments=1).passed

    def test_dimension_mismatch(self):
        t1 = line_trace([0], [1], [0.0, 1.0])
        t2 = line_trace([0, 0], [1, 1], [0.0, 1.0])
        with pytest.raises(ValueError):
            check_piecewise_linear_family([t1, t2], max_segments=1)


class TestDeclaredKnots:
    def test_dense_polyline_passes_with_its_knots(self):
        rng = np.random.default_rng(5)
        tr = dense_polyline(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
        assert tr.knots.tolist() == [0, 20, 40, 60]
        rep = check_piecewise_linear_family([tr], max_segments=3)
        assert rep.passed
        assert rep.worst_deviation <= 1e-12

    def test_two_bent_pieces_declared_as_one_fail(self):
        rng = np.random.default_rng(5)
        tr = dense_polyline(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
        merged = PathTrace(params=tr.params, points=tr.points, knots=[0, 20, 60])
        rep = check_piecewise_linear_family([merged], max_segments=3)
        assert not rep.passed
        assert rep.note.startswith("trace 0, segment 1: sample ")
        assert rep.worst_deviation > 1e-3


class TestFamilyCheckPerSegment:
    """The check runs one knot segment at a time; its report is the one a
    whole-trace evaluation gives."""

    @staticmethod
    def whole_trace(traces, tol=1e-9):
        """Per trace: the deviations of all samples but the last from the
        chords of their segments in one array, and the tolerance."""
        out = []
        for tr in traces:
            pts, ts, knots = tr.points, tr.params, tr.knots
            seg = np.searchsorted(knots, np.arange(len(ts) - 1), side="right") - 1
            lo, hi = knots[seg], knots[seg + 1]
            w = (ts[:-1] - ts[lo]) / (ts[hi] - ts[lo])
            dev = np.max(np.abs(pts[lo] + w[:, None] * (pts[hi] - pts[lo]) - pts[:-1]),
                         axis=1)
            out.append((dev, tol * max(1.0, float(np.max(np.abs(pts.real))),
                                       float(np.max(np.abs(pts.imag))))))
        return out

    def family(self, seed, bend=0.0):
        rng = np.random.default_rng(seed)
        traces = []
        for k in range(3):
            verts = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
            verts.real[:, 2] = 0.0 if k == 1 else -0.0  # zeros of both signs
            tr = dense_polyline(verts)
            pts = tr.points.copy()
            pts[1:-1] += bend * rng.normal(size=pts[1:-1].shape)
            traces.append(PathTrace(params=tr.params, points=pts, knots=tr.knots))
        return traces

    def test_passing_family_matches_the_whole_trace_evaluation(self):
        traces = self.family(3)
        rep = check_piecewise_linear_family(traces, max_segments=4)
        assert rep.passed
        assert rep.worst_deviation == max(float(np.max(d)) for d, _ in self.whole_trace(traces))

    def test_failing_family_names_the_whole_trace_worst_sample(self):
        traces = self.family(4, bend=1e-6)
        rep = check_piecewise_linear_family(traces, max_segments=4)
        dev, tol_abs = self.whole_trace(traces)[0]
        i = int(np.argmax(dev))
        assert not rep.passed
        assert rep.worst_deviation == float(dev[i])
        assert rep.note.startswith(f"trace 0, segment {i // 20}: sample {i} lies "
                                   f"{dev[i]:.3g} off the chord (tol {tol_abs:.3g})")

    def test_tie_across_segments_names_the_first_sample(self):
        tr = polyline_trace([[0], [1], [0], [1], [0]], knots=[0, 2, 4])
        rep = check_piecewise_linear_family([tr], max_segments=2)
        (dev, _), = self.whole_trace([tr])
        assert dev.tolist() == [0.0, 1.0, 0.0, 1.0]
        assert rep.worst_deviation == 1.0
        assert rep.note.startswith("trace 0, segment 0: sample 1 lies 1 off the chord")


def test_as_complex_vector_rejects_inf():
    with pytest.raises(ValueError):
        as_complex_vector([1.0, np.inf])
    with pytest.raises(ValueError):
        as_complex_vector([[1.0, 2.0]])


def csv_coordinates(x):
    return np.concatenate([x.real, x.imag], axis=-1)


def csv_cost(x):
    return x[..., 0].real


def csv_lyapunov(x):
    return -x[..., -1].imag


def assert_csv_matches_the_csv_module(directory, trace, rows_per_block=None):
    """``write_trace_csv`` gives the bytes of ``csv.writer`` fed with the
    same Python floats, row by row; returns those bytes.  With
    ``rows_per_block`` the writer's cell budget is cut to that many rows."""
    labels = [f"c{i}" for i in range(2 * trace.dim)]
    path = directory / "trace.csv"
    with pytest.MonkeyPatch.context() as patch:
        if rows_per_block is not None:
            patch.setattr(core, "CSV_BLOCK_CELLS", rows_per_block * (3 + len(labels)))
        write_trace_csv(str(path), trace, labels, csv_coordinates,
                        lambda tr: csv_cost(tr.points), lambda tr: csv_lyapunov(tr.points))
    reference = directory / "reference.csv"
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "f", "V", *labels])
        for t, x in zip(trace.params.tolist(), trace.points):
            writer.writerow([t, csv_cost(x).item(), csv_lyapunov(x).item(),
                             *csv_coordinates(x).tolist()])
    written = path.read_bytes()
    assert written == reference.read_bytes()
    return written


def test_trace_csv_matches_the_csv_module(tmp_path):
    """In one block, and in three blocks of one row."""
    pts = np.array([[-0.0, 1e-300 + 1e16j], [0.1, -2.5 - 1e-300j],
                    [1e16, 1 / 3 + 0.0j]], dtype=complex)
    trace = PathTrace(params=np.array([0.0, 0.5, 1.0]), points=pts, knots=[0, 1, 2])
    for rows_per_block in (None, 1):
        written = assert_csv_matches_the_csv_module(tmp_path, trace, rows_per_block)
        assert b"-0.0," in written and b"1e-300" in written


def test_trace_csv_reuses_text_only_for_equal_bits(tmp_path):
    """Many segments of repeated rows: a constant stage, a column constant
    across a knot, 0.0 then -0.0 in one column, subnormals and values near
    the ends of the float range; in one block, and in blocks of one, two
    and three rows, where every repeat and every flip straddles a block
    boundary (one row), and so does the constant stage (three rows)."""
    tiny, huge = 5e-324, 1.7976931348623157e308
    # real and imaginary part of each of two coordinates, per sample
    cells = [
        [0.0, 0.0, 1e300, 7.25],
        [-0.0, 0.0, 1e300, 7.25],          # 0.0 then -0.0
        [-0.0, 0.0, 1e300, 7.25],          # a repeated row
        [0.0, 1e-300, -1e-300, 7.25],
        [0.0, 1e-300, -1e-300, 7.25],      # knot: 7.25 runs across it
        [tiny, 1e-300, -1e-300, 7.25],
        [tiny, -1e300, 0.0, 7.25],
        [2.2250738585072014e-308, -1e300, -0.0, 1 / 3],
        [1e-310, huge, 0.0, 1 / 3],        # knot: a constant stage follows
        [1e-310, huge, 0.0, 1 / 3],
        [1e-310, huge, 0.0, 1 / 3],
        [1e-310, huge, 0.0, 1 / 3],        # knot
        [-tiny, -0.0, -huge, 0.0],
        [-0.0, -0.0, -huge, -0.0],
        [0.1, 0.2, 0.3, 0.0],
    ]
    pts = np.array(cells).view(complex)
    trace = PathTrace(params=np.linspace(0.0, 1.0, len(pts)), points=pts,
                      knots=[0, 4, 8, 11, 14])
    for rows_per_block in (None, 1, 2, 3):
        written = assert_csv_matches_the_csv_module(tmp_path, trace, rows_per_block)
        lines = written.split(b"\r\n")
        assert len(lines) == len(pts) + 2  # header, one line per sample, the final break
        assert lines[1].split(b",")[3] == b"0.0" and lines[2].split(b",")[3] == b"-0.0"
        assert b"5e-324" in written and b"1e-310" in written
        assert b"1.7976931348623157e+308" in written


def test_trace_csv_formats_repeats_across_columns(tmp_path):
    """Values repeated along each row, and in several columns of the row
    below where they are fresh; 0.0 beside -0.0 in one row; written in one
    block and in blocks of two rows, so a boundary falls between rows that
    share values."""
    cells = [
        [0.1, 0.1, -0.0, 0.0, 0.1, 1e300],
        [0.0, -0.0, 0.0, -0.0, 0.1, 0.1],
        [2.5, 2.5, 2.5, 0.1, -0.0, -0.0],
        [-0.0, 0.0, 2.5, 2.5, 0.1, 1 / 3],
        [1 / 3, 1 / 3, 1 / 3, 1 / 3, 5e-324, -5e-324],
    ]
    trace = PathTrace(params=np.linspace(0.0, 1.0, len(cells)),
                      points=np.array(cells).view(complex), knots=[0, 2, 4])
    for rows_per_block in (None, 2):
        written = assert_csv_matches_the_csv_module(tmp_path, trace, rows_per_block)
        assert b",0.0," in written and b",-0.0," in written


POOL = [0.0, -0.0, 1.0, -1.0, 1 / 3, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 2.5]


@given(st.integers(min_value=3, max_value=40).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.sampled_from(POOL), min_size=4, max_size=4),
             min_size=k, max_size=k),
    st.lists(st.booleans(), min_size=k - 2, max_size=k - 2),
    st.integers(min_value=1, max_value=k // 3))))
@settings(max_examples=60, deadline=None)
def test_trace_csv_of_repeating_values_matches_the_csv_module(tmp_path_factory, drawn):
    """Values from a small pool, so most cells repeat the one above, on
    traces cut into segments at random knots and written in blocks of a
    random number of rows, at least three blocks."""
    cells, is_knot, rows_per_block = drawn
    knots = [0, *(i + 1 for i, knot in enumerate(is_knot) if knot), len(cells) - 1]
    trace = PathTrace(params=np.linspace(0.0, 1.0, len(cells)),
                      points=np.array(cells).view(complex), knots=knots)
    assert_csv_matches_the_csv_module(tmp_path_factory.mktemp("csv"), trace,
                                      rows_per_block)


def test_trace_csv_memory_is_bounded_by_its_blocks(tmp_path):
    """A trace of the rank reduction's shape at n = 20 with C = I: 19 stages
    of 100 samples, 400 complex coordinates with zero imaginary parts, 20
    of them moving at every sample.  Beyond its inputs the writer holds one
    block's text (about 0.7 MiB); a writer that formats a whole knot segment
    at once holds about 3.6 MiB here."""
    rng = np.random.default_rng(3)
    pts = np.ones((1901, 400), dtype=complex)
    pts[:, :20] = rng.normal(size=(1901, 20))
    trace = PathTrace(params=np.linspace(0.0, 1.0, 1901), points=pts,
                      knots=np.arange(0, 1901, 100))
    cost, lyapunov = pts[:, 0].real.copy(), pts[:, 1].real.copy()
    labels = [f"c{i}" for i in range(800)]
    tracemalloc.start()
    try:
        write_trace_csv(str(tmp_path / "trace.csv"), trace, labels,
                        lambda run: run.view(float), lambda _: cost, lambda _: lyapunov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
