"""Problem-agnostic primitives: sampled paths, lengths, norms, problem handles.

Conventions used throughout the package:

* points live in C^d and are stored as 1-D ``numpy`` arrays of ``complex``;
  purely real coordinates simply carry zero imaginary parts; a stack of
  points is an ``(..., d)`` array, and every :class:`ProblemHandle`
  callable maps it to an ``(...)`` array of values, one per point;
* a path is represented by a finite sample grid (:class:`PathTrace`); every
  path constructed by this package is piecewise linear, so sampling plus a
  declared segment count is lossless;
* feasibility is always expressed through nonnegative residuals, with
  ``residual <= FEAS_TOL`` meaning membership.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

# Membership tolerance on unit-scaled residuals (double-precision conic
# solvers do not reliably deliver more).
FEAS_TOL = 1e-8
# Floating-point slack for "non-increasing along samples" checks.
MONOTONE_SLACK = 1e-12
# Default sample count per linear segment of a constructed path.
SEGMENT_SAMPLES = 101


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


def norm_m(x: Sequence[complex] | np.ndarray) -> float:
    """Sum of absolute real and imaginary parts, sum_i |Re x_i| + |Im x_i|."""
    vec = as_complex_vector(x)
    return float(np.sum(np.abs(vec.real)) + np.sum(np.abs(vec.imag)))


@dataclass(frozen=True)
class PathTrace:
    """A sampled path ``t in [0,1] -> C^d``.

    ``params`` is strictly increasing with ``params[0] == 0`` and
    ``params[-1] == 1``; ``points[i]`` is the sample at ``params[i]``.
    ``segments`` declares the number of linear pieces; ``0`` means the trace
    is sampled only and makes no linearity claim.
    """

    params: np.ndarray
    points: np.ndarray
    segments: int = 0

    def __post_init__(self) -> None:
        params = np.asarray(self.params, dtype=float)
        points = np.asarray(self.points, dtype=complex)
        if params.ndim != 1 or points.ndim != 2:
            raise ValueError("params must be 1-D and points 2-D (sample, coord)")
        if len(params) != len(points):
            raise ValueError(
                f"{len(params)} params but {len(points)} points")
        if len(params) < 2:
            raise ValueError("a trace needs at least two samples")
        if not np.all(np.isfinite(params)):
            raise ValueError("params must be finite")
        if not (np.all(np.isfinite(points.real)) and np.all(np.isfinite(points.imag))):
            raise ValueError("points must be finite")
        if abs(params[0]) > 0.0 or abs(params[-1] - 1.0) > 0.0:
            raise ValueError("params must start at 0 and end at 1")
        if np.any(np.diff(params) <= 0):
            raise ValueError("params must be strictly increasing")
        if self.segments < 0:
            raise ValueError("segments must be >= 0")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "points", points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.params)

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]

    def evaluate(self, t: float) -> np.ndarray:
        """Linearly interpolate the trace at parameter ``t``."""
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"parameter {t} outside [0, 1]")
        idx = int(np.searchsorted(self.params, t, side="right")) - 1
        idx = min(max(idx, 0), len(self.params) - 2)
        t0, t1 = self.params[idx], self.params[idx + 1]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.points[idx] + w * self.points[idx + 1]


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
    would produce repeated parameters.
    """
    cum = cumulative_lengths(trace)
    total = cum[-1]
    if total == 0.0:
        return trace
    new_params = cum / total
    keep = np.concatenate(([True], np.diff(new_params) > 0))
    keep[0] = True
    params = new_params[keep]
    points = trace.points[keep]
    # relabelling can only merge samples, never bend the polyline
    params[0], params[-1] = 0.0, 1.0
    return PathTrace(params=params, points=points, segments=trace.segments)


def count_affine_segments(trace: PathTrace, tol: float = 1e-9) -> tuple[int, float]:
    """Greedy minimal cover of the samples by affine-in-t runs.

    Returns ``(segment_count, worst_deviation)`` where the deviation is the
    largest distance from an interior sample to the chord of its run,
    measured entrywise over real and imaginary parts.  ``tol`` is scaled by
    the magnitude of the data.
    """
    pts, ts = trace.points, trace.params
    n = len(pts)
    scale = max(1.0, float(np.max(np.abs(pts.real))), float(np.max(np.abs(pts.imag))))
    tol_abs = tol * scale
    worst = 0.0
    count = 0
    i = 0
    while i < n - 1:
        j = i + 1
        run_dev = 0.0
        while j + 1 < n:
            k = slice(i + 1, j + 1)
            w = (ts[k] - ts[i]) / (ts[j + 1] - ts[i])
            chord = pts[i] + w[:, None] * (pts[j + 1] - pts[i])
            dev_arr = np.abs(chord - pts[k])
            dev = float(max(np.max(dev_arr.real), np.max(dev_arr.imag))) if dev_arr.size else 0.0
            if dev > tol_abs:
                break
            run_dev = max(run_dev, dev)
            j += 1
        worst = max(worst, run_dev)
        count += 1
        i = j
    return count, worst


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

    Passes iff every trace declares ``1 <= segments <= max_segments``, its
    samples are consistent with that declaration (greedy affine cover needs
    no more runs), and all samples fit in one finite bounding box.  An empty
    family passes vacuously.  Traces with ``segments == 0`` make no linearity
    claim and fail the check.
    """
    traces = list(traces)
    if not traces:
        return PwlFamilyReport(True, None, 0.0, "empty family: vacuously true")
    dim = traces[0].dim
    if any(tr.dim != dim for tr in traces):
        raise ValueError("traces must share the ambient dimension")

    worst = 0.0
    for idx, tr in enumerate(traces):
        if tr.segments == 0:
            return PwlFamilyReport(
                False, None, 0.0,
                f"trace {idx} declares no linear segments (sampled only)")
        if tr.segments > max_segments:
            return PwlFamilyReport(
                False, None, 0.0,
                f"trace {idx} declares {tr.segments} segments > {max_segments}")
        count, dev = count_affine_segments(tr, tol=tol)
        worst = max(worst, dev)
        if count > tr.segments:
            return PwlFamilyReport(
                False, None, dev,
                f"trace {idx} needs {count} affine runs but declares {tr.segments}")

    stacked = np.concatenate([tr.points for tr in traces], axis=0)
    box = (stacked.min(axis=0), stacked.max(axis=0))
    return PwlFamilyReport(True, box, worst)


@dataclass(frozen=True)
class ProblemHandle:
    """Cost plus feasibility residuals for a problem and its relaxation.

    ``residual_feasible`` measures distance-to-membership for the original
    set, ``residual_relaxed`` for its convex superset; both are nonnegative
    and vanish (to ``FEAS_TOL``) exactly on members.  ``lyapunov``, when
    present, is nonnegative on the relaxed set and vanishes exactly on the
    original set.  Every callable maps an ``(..., d)`` stack of points to
    the ``(...)`` array of its values, so a whole sampled path is evaluated
    in one call.
    """

    cost: Callable[[np.ndarray], np.ndarray]
    residual_feasible: Callable[[np.ndarray], np.ndarray]
    residual_relaxed: Callable[[np.ndarray], np.ndarray]
    lyapunov: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class PathCheck:
    """What the monotone-path conditions are judged on, for one trace from
    one point.  Arrays hold one value per sample, or per step for rises:
    increases beyond ``MONOTONE_SLACK``, so a positive rise is a violation.
    ``cost_drop`` is the end-to-end decrease beyond that slack."""

    anchor_gap: float
    anchor_scale: float
    relaxed: np.ndarray
    end_residual: float
    costs: np.ndarray
    lyapunov: np.ndarray
    cost_rises: np.ndarray
    lyapunov_rises: np.ndarray
    cost_drop: float


def verify_path(handle: ProblemHandle, x: np.ndarray, trace: PathTrace) -> PathCheck:
    """Evaluate a sampled path from ``x`` with one handle call per quantity."""
    if handle.lyapunov is None:
        raise ValueError("the problem carries no Lyapunov function")
    relaxed = handle.residual_relaxed(trace.points)
    end_residual = float(handle.residual_feasible(trace.end))
    f, v = handle.cost(trace.points), handle.lyapunov(trace.points)
    return PathCheck(
        anchor_gap=float(np.max(np.abs(trace.start - x), initial=0.0)),
        anchor_scale=1.0 + float(np.max(np.abs(x), initial=0.0)),
        relaxed=relaxed, end_residual=end_residual, costs=f, lyapunov=v,
        cost_rises=np.diff(f) - MONOTONE_SLACK * (1.0 + np.abs(f[:-1])),
        lyapunov_rises=np.diff(v) - MONOTONE_SLACK * (1.0 + np.abs(v[:-1])),
        cost_drop=float((f[0] - f[-1]) - MONOTONE_SLACK * (1.0 + abs(f[0]))))


def write_trace_csv(
    path: str,
    trace: PathTrace,
    coordinate_labels: Sequence[str],
    coordinate_rows: Callable[[np.ndarray], np.ndarray],
    cost: Callable[[np.ndarray], np.ndarray],
    lyapunov: Callable[[np.ndarray], np.ndarray],
) -> None:
    """Write a trace as CSV: columns ``t, f, V`` then flattened coordinates.

    Each callable maps the ``(K, d)`` sample matrix to one row (or value)
    per sample; ``coordinate_rows`` gives the real values matching
    ``coordinate_labels``, whose order callers fix so files are
    deterministic and diffable.
    """
    pts = trace.points
    columns = zip(trace.params.tolist(), cost(pts).tolist(),
                  lyapunov(pts).tolist(), coordinate_rows(pts))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["t", "f", "V", *coordinate_labels])
        # the rows hold Python numbers only: repr round-trips them exactly and
        # needs no quoting, so joining gives csv.writer's bytes, faster
        fh.writelines(",".join(map(repr, [t, f, v, *row.tolist()])) + "\r\n"
                      for t, f, v, row in columns)
