"""Problem-agnostic primitives: sampled paths, lengths, norms, problem handles.

Conventions used throughout the package:

* points live in C^d and are stored as 1-D ``numpy`` arrays of ``complex``;
  purely real coordinates simply carry zero imaginary parts; a stack of
  points is an ``(..., d)`` array, and a :class:`ProblemHandle` maps it
  to its :class:`HandleValues`, four ``(...)`` arrays with one value per
  point, from one evaluation;
* a path is represented by a finite sample grid plus its knots, the sample
  indices where its linear pieces meet (:class:`PathTrace`); every path
  constructed by this package is piecewise linear with its breaks among the
  samples, so samples and knots together are lossless; a trace holds one
  row generator per knot segment, which slices a stored array or makes its
  rows on demand, and its consumers read one knot segment at a time;
* feasibility is always expressed through nonnegative residuals, with
  ``residual <= FEAS_TOL`` meaning membership;
* a sampled path is evaluated once by :func:`verify_path` and judged once
  by :meth:`PathCheck.conditions`; a path's starting point is tested for
  membership once, by its caller, before the path is built; path
  constructors check only what they need to build the path, never its
  samples;
* a relaxation optimum's membership is tested once, by its caller;
  Lyapunov values and margins measure, never judge.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from relaxcert.floatrepr import WIDTH, repr_text

# Membership tolerance on unit-scaled residuals (double-precision conic
# solvers do not reliably deliver more).
FEAS_TOL = 1e-8
# Floating-point slack for "non-increasing along samples" checks.
MONOTONE_SLACK = 1e-12
# Default sample count per linear segment of a constructed path.
SEGMENT_SAMPLES = 101
# Most cells that write_trace_csv formats at once.
CSV_BLOCK_CELLS = 2**14
# A CSV cell's bytes, gathered as one item: repr text padded with NUL, then
# a comma.
_CELL = np.dtype((np.void, WIDTH + 1))


class PreconditionError(ValueError):
    """An operation was called on inputs violating its documented precondition."""


class CertificateViolationError(RuntimeError):
    """A post-condition that the construction guarantees failed anyway.

    Raising this means a bug (or broken input certificate), never a normal
    outcome; property tests assert these are unreachable on valid inputs.
    """


def as_complex_vector(entries: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Validate and return a finite 1-D complex vector."""
    vec = np.asarray(entries, dtype=complex)
    if vec.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {vec.shape}")
    if not (np.all(np.isfinite(vec.real)) and np.all(np.isfinite(vec.imag))):
        raise ValueError("complex vector entries must be finite")
    return vec


def finite_number(value: object, field: str) -> float:
    """An input field's value as a float; only finite non-boolean ints and
    floats are numbers, so strings, booleans, NaN and infinities are
    rejected with the field named."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError(f"{field}: expected a finite number, got {value!r}")
    return float(value)


def complex_pair(value: object, field: str) -> complex:
    """An ``[re, im]`` input field as a complex number, each part checked
    with :func:`finite_number`."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{field}: expected [re, im] pair, got {value!r}")
    return complex(finite_number(value[0], f"{field}[0]"),
                   finite_number(value[1], f"{field}[1]"))


def finite_numbers(values: object, field: str) -> list[float]:
    """A list field of finite numbers, checked with :func:`finite_number`."""
    if not isinstance(values, list):
        raise ValueError(f"{field}: expected a list of numbers, got {values!r}")
    return [finite_number(v, f"{field}[{i}]") for i, v in enumerate(values)]


def norm_m(x: Sequence[complex] | np.ndarray) -> float:
    """Sum of absolute real and imaginary parts, sum_i |Re x_i| + |Im x_i|."""
    vec = as_complex_vector(x)
    return float(np.sum(np.abs(vec.real)) + np.sum(np.abs(vec.imag)))


class PathTrace:
    """A sampled piecewise-linear path ``t in [0,1] -> C^d``.

    ``params`` is strictly increasing with ``params[0] == 0`` and
    ``params[-1] == 1``; the sample at ``params[i]`` is row ``i`` of
    :meth:`rows`, the one way to read samples.  ``knots`` are the sample
    indices where the linear pieces meet: strictly increasing, from ``0`` to
    ``len - 1``.  Between consecutive knots the path is claimed affine in
    ``t``; :func:`check_piecewise_linear_family` verifies the claim against
    the samples.

    A trace holds one row generator per knot segment, ``pieces[i](a, b)``
    making rows ``knots[i] + a .. knots[i] + b - 1``, and :meth:`rows` asks
    each segment for its part of a range, a knot row from the earlier
    segment (:meth:`spans`).  A trace built here slices its ``(K, d)``
    sample array; :meth:`generated` takes the generators themselves, and
    every path the package constructs (restoration, rank reduction,
    intersection) is generated, so it holds no samples.  :attr:`points`
    builds every row and caches nothing: each read makes its rows again.
    """

    def __init__(self, params, points, knots) -> None:
        points = np.asarray(points, dtype=complex)
        if points.ndim != 2:
            raise ValueError("points must be 2-D (sample, coord)")
        self._init(params, knots, points.shape[1])
        if len(self) != len(points):
            raise ValueError(f"{len(self)} params but {len(points)} points")
        _finite_rows(points)
        self.pieces = [lambda a, b, k=k: points[k + a:k + b] for k in self._firsts]

    @classmethod
    def generated(cls, params, knots, dim: int,
                  pieces: Sequence[Callable[[int, int], np.ndarray]]) -> "PathTrace":
        """A trace whose segment ``i`` makes its rows ``knots[i] + a ..
        knots[i] + b - 1`` as ``pieces[i](a, b)``, a new ``(b - a, dim)``
        complex array, each checked finite as it is made."""
        trace = cls.__new__(cls)
        trace._init(params, knots, dim)
        if len(pieces) != trace.segments:
            raise ValueError(f"{len(pieces)} pieces for {trace.segments} segments")
        trace.pieces = [lambda a, b, piece=piece: _finite_rows(piece(a, b))
                        for piece in pieces]
        return trace

    def _init(self, params, knots, dim: int) -> None:
        params = np.asarray(params, dtype=float)
        knots = np.asarray(knots)
        if params.ndim != 1:
            raise ValueError("params must be 1-D")
        if len(params) < 2:
            raise ValueError("a trace needs at least two samples")
        if not np.all(np.isfinite(params)):
            raise ValueError("params must be finite")
        if abs(params[0]) > 0.0 or abs(params[-1] - 1.0) > 0.0:
            raise ValueError("params must start at 0 and end at 1")
        if np.any(np.diff(params) <= 0):
            raise ValueError("params must be strictly increasing")
        if (knots.ndim != 1 or len(knots) < 2
                or not np.issubdtype(knots.dtype, np.integer)
                or knots[0] != 0 or knots[-1] != len(params) - 1
                or np.any(np.diff(knots) <= 0)):
            raise ValueError(
                "knots must be strictly increasing sample indices from 0 to "
                f"{len(params) - 1}, got {knots.tolist()}")
        self.params, self.knots, self.dim = params, knots, dim
        # built once for rows and spans: each segment's first knot, and its
        # rows, a knot shared by two segments going to the earlier one
        self._firsts = knots[:-1].tolist()
        self._spans = tuple((lo + (lo > 0), hi + 1)
                            for lo, hi in zip(self._firsts, knots[1:].tolist()))
        self._ends = [hi for _, hi in self._spans]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Samples ``lo .. hi - 1`` as a ``(hi - lo, dim)`` array."""
        if not 0 <= lo <= hi <= len(self):
            raise ValueError(f"rows {lo}..{hi} outside 0..{len(self)}")
        parts = []
        # the segments holding rows lo .. hi - 1, from the first ending after lo
        for i in range(bisect.bisect_right(self._ends, lo), self.segments):
            a, b = self._spans[i]
            if a >= hi or lo == hi:
                break
            parts.append((max(lo, a), min(hi, b), self.pieces[i], self._firsts[i]))
        if len(parts) == 1:
            a, b, piece, k = parts[0]
            return piece(a - k, b - k)
        out = np.empty((hi - lo, self.dim), dtype=complex)
        for a, b, piece, k in parts:
            out[a - lo:b - lo] = piece(a - k, b - k)
        return out

    @property
    def points(self) -> np.ndarray:
        """Every sample, as a ``(K, d)`` array."""
        return self.rows(0, len(self))

    @property
    def segments(self) -> int:
        """Number of linear pieces."""
        return len(self.knots) - 1

    def spans(self) -> tuple[tuple[int, int], ...]:
        """Each knot segment's rows as ``(lo, hi)``, hi exclusive, a knot
        shared by two segments going to the earlier one."""
        return self._spans

    def __len__(self) -> int:
        return len(self.params)

    @property
    def start(self) -> np.ndarray:
        return self.rows(0, 1)[0]

    @property
    def end(self) -> np.ndarray:
        return self.rows(len(self) - 1, len(self))[0]

    def evaluate(self, t: float) -> np.ndarray:
        """Linearly interpolate the trace at parameter ``t``."""
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"parameter {t} outside [0, 1]")
        idx = int(np.searchsorted(self.params, t, side="right")) - 1
        idx = min(max(idx, 0), len(self.params) - 2)
        t0, t1 = self.params[idx], self.params[idx + 1]
        w = (t - t0) / (t1 - t0)
        a, b = self.rows(idx, idx + 2)
        return (1.0 - w) * a + w * b


def _finite_rows(rows: np.ndarray) -> np.ndarray:
    """``rows``, once checked finite."""
    # a complex entry is finite when both of its parts are
    if not np.all(np.isfinite(rows)):
        raise ValueError("points must be finite")
    return rows


def partition_length(trace: PathTrace, lo: float = 0.0, hi: float = 1.0) -> float:
    """Euclidean length of the polyline through the stored samples in [lo, hi].

    Equals the exact path length whenever the trace is piecewise linear with
    its breakpoints among the samples.
    """
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError(f"invalid parameter range [{lo}, {hi}]")
    mask = (trace.params >= lo) & (trace.params <= hi)
    pts = trace.points[mask]
    if len(pts) < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def cumulative_lengths(trace: PathTrace) -> np.ndarray:
    """Cumulative polyline length at each sample, starting at 0."""
    steps = np.linalg.norm(np.diff(trace.points, axis=0), axis=1)
    return np.concatenate(([0.0], np.cumsum(steps)))


def arc_length_reparameterize(trace: PathTrace) -> PathTrace:
    """Relabel samples so the parameter is proportional to arc length.

    The sample points (and therefore the image and total length) are
    unchanged; only the parameter grid moves.  Zero-length traces are
    returned as-is.  Consecutive duplicate points are collapsed, since they
    would produce repeated parameters; a knot on a collapsed sample moves to
    the kept sample at the same point.
    """
    cum = cumulative_lengths(trace)
    total = cum[-1]
    if total == 0.0:
        return trace
    new_params = cum / total
    keep = np.concatenate(([True], np.diff(new_params) > 0))
    params = new_params[keep]
    points = trace.points[keep]
    # relabelling can only merge samples, never bend the polyline
    params[0], params[-1] = 0.0, 1.0
    knots = np.unique((np.cumsum(keep) - 1)[trace.knots])
    return PathTrace(params=params, points=points, knots=knots)


@dataclass(frozen=True)
class PwlFamilyReport:
    """Outcome of the piecewise-linear family check."""

    passed: bool
    bounding_box: tuple[np.ndarray, np.ndarray] | None
    worst_deviation: float
    note: str = ""


def check_piecewise_linear_family(
    traces: Iterable[PathTrace], max_segments: int, tol: float = 1e-9
) -> PwlFamilyReport:
    """Certify that a family of traces is uniformly piecewise linear.

    Passes iff every trace declares at most ``max_segments`` segments, every
    sample lies within ``tol`` (scaled by the magnitude of the trace's data)
    of the chord of its declared segment, and all samples fit in one finite
    bounding box, which bounds the real and the imaginary parts of each
    coordinate apart.  One O(K d) pass per trace, one knot segment at a
    time; an empty family passes vacuously.
    """
    traces = list(traces)
    if not traces:
        return PwlFamilyReport(True, None, 0.0, "empty family: vacuously true")
    dim = traces[0].dim
    if any(tr.dim != dim for tr in traces):
        raise ValueError("traces must share the ambient dimension")

    worst = 0.0
    lows, highs = [], []
    for idx, tr in enumerate(traces):
        if tr.segments > max_segments:
            return PwlFamilyReport(
                False, None, 0.0,
                f"trace {idx} declares {tr.segments} segments > {max_segments}")
        # every sample of a span but its last (a knot) against the chord of
        # its segment, which starts at the previous span's last row, as the
        # largest complex modulus over coordinates, one span at a time; the
        # deviation at a knot is exactly 0, and the first sample of the
        # largest deviation is reported; the box keeps running minima and
        # maxima over the spans of the real and the imaginary parts apart,
        # as (d, 2) pairs, since a complex minimum is lexicographic
        ts = tr.params
        i, seg_i, dev_i, scale = 0, 0, -1.0, 1.0
        low = high = start = None
        for seg, (k, (a, b)) in enumerate(zip(tr.knots.tolist(), tr.spans())):
            run = tr.rows(a, b)
            start = run[0] if start is None else start
            if len(run) > 1:  # a later one-step span is its knot alone
                w = (ts[a:b - 1] - ts[k]) / (ts[b - 1] - ts[k])
                dev = np.max(np.abs(start + w[:, None] * (run[-1] - start) - run[:-1]),
                             axis=1)
                j = int(np.argmax(dev))
                if dev[j] > dev_i:
                    i, seg_i, dev_i = a + j, seg, float(dev[j])
            start = run[-1].copy()  # a view would keep the span alive
            scale = max(scale, float(np.max(np.abs(run.real))),
                        float(np.max(np.abs(run.imag))))
            parts = (run.real, run.imag)
            seg_low = np.stack([p.min(axis=0) for p in parts], axis=1)
            seg_high = np.stack([p.max(axis=0) for p in parts], axis=1)
            low = seg_low if low is None else np.minimum(low, seg_low)
            high = seg_high if high is None else np.maximum(high, seg_high)
        tol_abs = tol * scale
        if dev_i > tol_abs:
            return PwlFamilyReport(
                False, None, dev_i,
                f"trace {idx}, segment {seg_i}: sample {i} lies {dev_i:.3g} "
                f"off the chord (tol {tol_abs:.3g}); the {tr.segments} declared "
                "affine runs do not fit the samples")
        worst = max(worst, dev_i)
        lows.append(low)
        highs.append(high)

    # each (d, 2) pair array viewed as its d complex bounds, signed zeros kept
    box = (np.min(lows, axis=0).view(complex)[:, 0],
           np.max(highs, axis=0).view(complex)[:, 0])
    return PwlFamilyReport(True, box, worst)


class HandleValues(NamedTuple):
    """The four quantities of a stack of points, one ``(...)`` array each:
    the cost, the residuals of the relaxed and of the original set, and the
    Lyapunov value."""

    cost: np.ndarray
    relaxed: np.ndarray
    feasible: np.ndarray
    lyapunov: np.ndarray


@dataclass(frozen=True)
class ProblemHandle:
    """A problem and its relaxation, evaluated in one call per stack.

    ``evaluate`` maps an ``(..., d)`` stack of points to its
    :class:`HandleValues`.  ``feasible`` measures distance-to-membership for the original
    set, ``relaxed`` for its convex superset; both are nonnegative and
    vanish (to ``FEAS_TOL``) exactly on members.  ``lyapunov`` is
    nonnegative on the relaxed set and vanishes exactly on the original
    set; it measures every point and judges none, since the residuals
    judge membership.
    """

    evaluate: Callable[[np.ndarray], HandleValues]


@dataclass(frozen=True)
class PathCheck:
    """What the monotone-path conditions are judged on, for one trace from
    one point: the start's gap from the point with its scale, the relaxed
    residual, cost and Lyapunov value of every sample, and the endpoint's
    feasible residual."""

    anchor_gap: float
    anchor_scale: float
    relaxed: np.ndarray
    end_residual: float
    costs: np.ndarray
    lyapunov: np.ndarray

    def conditions(self, tol: float = FEAS_TOL) -> list[tuple[float, str]]:
        """The conditions as ``(margin, witness)`` pairs, a negative margin
        being a fault: the non-strict ones, then the strict end-to-end cost
        drop.  Rises and drops count beyond ``MONOTONE_SLACK``.  The anchor
        gap, an endpoint Lyapunov value above ``tol`` and a Lyapunov value
        that does not strictly decrease count only when they fail, the last
        two as endpoint and Lyapunov faults, so a passing path keeps the
        margins of the other conditions."""
        f, v, end = self.costs, self.lyapunov, self.end_residual
        worst = float(np.max(self.relaxed))
        f_slack, v_slack = (MONOTONE_SLACK * (1.0 + np.abs(a)) for a in (f, v))
        anchor = 1e-9 * self.anchor_scale - self.anchor_gap
        pairs = [] if anchor >= 0 else [
            (anchor, f"path starts {self.anchor_gap:.3g} away from the point")]
        return pairs + [
            (tol - worst, f"a path sample leaves the relaxed set (residual {worst:.3g})"),
            _when_failing((tol - end, f"endpoint infeasible (residual {end:.3g})"),
                          (tol - float(v[-1]),
                           f"endpoint infeasible (Lyapunov value {v[-1]:.3g})")),
            (-float(np.max(np.diff(f) - f_slack[:-1])), "cost increases along the path"),
            _when_failing((-float(np.max(np.diff(v) - v_slack[:-1])),
                           "Lyapunov value increases along the path"),
                          (float(v[0] - v[-1] - v_slack[0]),
                           "Lyapunov value did not strictly decrease end to end")),
            (float(f[0] - f[-1] - f_slack[0]),
             f"cost did not strictly decrease (drop {f[0] - f[-1]:.3g})"),
        ]


def _when_failing(listed: tuple[float, str],
                  extra: tuple[float, str]) -> tuple[float, str]:
    """``listed``, with ``extra`` folded in if that fails: the lower margin,
    and ``extra``'s witness if ``listed`` passes."""
    if extra[0] >= 0:
        return listed
    return min(listed[0], extra[0]), listed[1] if listed[0] < 0 else extra[1]


def verify_path(handle: ProblemHandle, x: np.ndarray, trace: PathTrace) -> PathCheck:
    """Evaluate a sampled path from ``x`` with one handle call per knot
    segment, whose samples are made for that call; a knot shared by two
    segments is evaluated with the earlier one, and the endpoint's feasible
    residual is read from the last."""
    values = HandleValues(*map(np.concatenate, zip(*(
        handle.evaluate(trace.rows(lo, hi)) for lo, hi in trace.spans()))))
    return PathCheck(
        anchor_gap=float(np.max(np.abs(trace.start - x), initial=0.0)),
        anchor_scale=1.0 + float(np.max(np.abs(x), initial=0.0)),
        relaxed=values.relaxed, end_residual=float(values.feasible[-1]),
        costs=values.cost, lyapunov=values.lyapunov)


def write_trace_csv(
    path: str,
    trace: PathTrace,
    coordinate_labels: Sequence[str],
    coordinate_rows: Callable[[np.ndarray], np.ndarray],
    cost: Callable[[PathTrace], np.ndarray],
    lyapunov: Callable[[PathTrace], np.ndarray],
) -> None:
    """Write a trace as CSV: columns ``t, f, V`` then flattened coordinates.

    ``cost`` and ``lyapunov`` map the trace to one value per sample and are
    called once; ``coordinate_rows`` maps a ``(k, d)`` run of samples to one
    row of real values per sample, matching ``coordinate_labels``, whose
    order callers fix so files are deterministic and diffable.  The samples
    are made one knot segment at a time, and each segment is formatted in
    blocks of at most ``CSV_BLOCK_CELLS`` cells (at least one row).  A cell
    is ``repr`` text, made by :func:`~relaxcert.floatrepr.repr_text` for
    the block's distinct values whose float64 bits differ from the cell
    above, in the block or written before it; any other cell reuses the
    text above it.  A block's rows are one byte buffer, and the bytes are
    those of ``csv.writer``.
    """
    columns = (trace.params, cost(trace), lyapunov(trace))
    width = 3 + len(coordinate_labels)
    step = max(1, CSV_BLOCK_CELLS // width)
    header = io.StringIO()
    csv.writer(header).writerow(["t", "f", "V", *coordinate_labels])
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode("utf-8"))
        # the words and bits of the last row written
        above, above_bits = np.empty((0, WIDTH + 1), dtype=np.uint8), None
        for first, stop in trace.spans():
            coords = coordinate_rows(trace.rows(first, stop))
            for lo in range(first, stop, step):
                hi = min(lo + step, stop)
                block = np.column_stack([*(c[lo:hi] for c in columns),
                                         coords[lo - first:hi - first]])
                bits = block.view(np.uint64)  # -0.0 and 0.0 differ here
                fresh = np.ones(block.shape, dtype=bool)
                np.not_equal(bits[1:], bits[:-1], out=fresh[1:])
                if above_bits is not None:
                    np.not_equal(bits[0], above_bits, out=fresh[0])
                # the block's words, each a fixed-width cell of bytes: the
                # row above's, each distinct fresh value's and a line end,
                # text before a comma; repr text needs no quoting, so these
                # are csv.writer's bytes
                keys, inverse = np.unique(bits[fresh], return_inverse=True)
                words = np.zeros((len(above) + len(keys) + 1, WIDTH + 1), dtype=np.uint8)
                words[:len(above)] = above
                words[len(above):-1, :WIDTH] = repr_text(keys.view(float))
                words[len(above):-1, WIDTH] = ord(",")
                words[-1, 0] = ord("\n")
                word = np.empty(block.shape, dtype=np.intp)
                word[0] = np.arange(width)
                word[fresh] = inverse + len(above)
                # each cell takes the word of the nearest fresh cell above it
                source = np.where(fresh, np.arange(len(block))[:, None], 0)
                np.maximum.accumulate(source, axis=0, out=source)
                cells = np.full((len(block), width + 1), len(words) - 1)
                cells[:, :-1] = np.take(word, source * width + np.arange(width))
                lines = np.take(words.view(_CELL)[:, 0], cells).view(np.uint8)
                lines = lines.reshape(len(block), -1)
                lines[:, -WIDTH - 2] = ord("\r")  # for the last cell's comma
                fh.write(lines[lines != 0])
                # copies: views would keep the block and its text alive
                above, above_bits = words[cells[-1, :-1]], bits[-1].copy()
