"""Certificate checkers and desk-scale verification oracles.

Condition checks are sampled, never symbolic: monotone-path conditions are
verified on finitely many relaxed points, uniform regularity through the
bounded-segment proxy, and global statements through an exhaustive grid
oracle plus deterministic multistart local search on eliminated low-dimension
models.

The scipy modules only the landscape layer uses (``ndimage``, ``optimize``,
``spatial``) are imported inside the functions that call them, so
``relaxcert opf``, ``lrsdp`` and ``certify`` never load them.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from relaxcert.compose import CertifiedProblem
from relaxcert.core import (
    FEAS_TOL,
    MONOTONE_SLACK,
    CertificateViolationError,
    PathCheck,
    PathTrace,
    PreconditionError,
    check_piecewise_linear_family,
    verify_path,
)
from relaxcert.distflow import OpfCost, RadialNetwork, distflow, empty_box

EQUAL_COST_TOL = 1e-9     # plateau detection and global-cost ties
ORACLE_DIM_LIMIT = 4      # ambient real dimension guard for the grid scan
ORACLE_POINT_LIMIT = 2 * 10**7  # scan budget in cells: it bounds time, not memory
SCAN_SLAB_CELLS = 2**16   # cells per model call in the scan mask (whole rows)
KKT_ACTIVE_TOL = 1e-6     # slack below which the KKT test counts a constraint active
PROJECTION_STEPS = 20     # passes of the multistart start projection
MAX_STARTS = 2**27        # 8 candidates per start fill the 2**30 Sobol points


class DimensionGuardError(ValueError):
    """The eliminated model has too many degrees of freedom to scan."""


class InfeasibleAtResolutionError(RuntimeError):
    """No grid point passed the feasibility filter."""


# --- condition checks --------------------------------------------------------

@dataclass(frozen=True)
class ConditionResult:
    """Pass/fail verdict with the worst margin and failure witnesses."""

    name: str
    passed: bool
    margin: float
    witnesses: tuple[str, ...] = ()
    note: str = ""

    def as_dict(self) -> dict[str, Any]:
        # a vacuous check (no samples, no traces) has no finite margin
        margin = self.margin if np.isfinite(self.margin) else None
        return {"passed": self.passed, "margin": margin,
                "witnesses": list(self.witnesses), "note": self.note}


@dataclass(frozen=True)
class PathConditionChecks:
    """Joint outcome of the monotone-path checks on sampled points."""

    c1: ConditionResult
    c3: ConditionResult
    traces: tuple[PathTrace, ...]


def check_c1_c3(
    problem: CertifiedProblem,
    sample_points: Sequence[np.ndarray],
    tol: float = FEAS_TOL,
) -> PathConditionChecks:
    """Verify the monotone-path conditions on each sampled relaxed point.

    Every point must lie in the relaxed set but outside the feasible one.
    For each, the factory builds a path and :func:`~relaxcert.core.verify_path`
    evaluates it once; :meth:`~relaxcert.core.PathCheck.conditions` judges
    it, its non-strict conditions for c3 and all of them, the end-to-end
    cost drop included, for c1.  A failed condition becomes a witness; a
    factory exception is raised as a violation naming the point.
    """
    if len(sample_points) == 0:
        note = "no sample points: vacuously true"
        c3 = ConditionResult("c3", True, np.inf, note=note)
        c1 = ConditionResult("c1", True, np.inf, note=note)
        return PathConditionChecks(c1=c1, c3=c3, traces=())

    handle = problem.handle
    margins = {"c1": np.inf, "c3": np.inf}
    witnesses: dict[str, list[str]] = {"c1": [], "c3": []}
    traces: list[PathTrace] = []

    points = np.asarray(sample_points, dtype=complex)
    values = handle.evaluate(points)
    for idx, x in enumerate(points):
        rr, rf = values.relaxed[idx], values.feasible[idx]
        if rr > tol or rf <= tol:
            raise PreconditionError(
                f"sample {idx} is not in the relaxed-minus-feasible region "
                f"(relaxed residual {rr:.3g}, feasible residual {rf:.3g})")
        try:
            trace = problem.path_factory(x)
        except Exception as exc:
            raise CertificateViolationError(
                f"path factory failed on sample {idx}: {exc}") from exc
        traces.append(trace)
        *c3_pairs, strict = verify_path(handle, x, trace).conditions(tol)
        for name, pairs in (("c3", c3_pairs), ("c1", [*c3_pairs, strict])):
            margins[name] = min(margins[name], *(m for m, _ in pairs))
            witnesses[name] += [f"sample {idx}: {w}" for m, w in pairs if m < 0]

    c1, c3 = (ConditionResult(name, not witnesses[name], float(margins[name]),
                              tuple(witnesses[name])) for name in ("c1", "c3"))
    return PathConditionChecks(c1=c1, c3=c3, traces=tuple(traces))


def check_c2_proxy(problem: CertifiedProblem,
                   traces: Sequence[PathTrace]) -> ConditionResult:
    """Uniform-regularity proxy: all paths piecewise linear with a common
    segment bound and a common bounding box."""
    report = check_piecewise_linear_family(traces, problem.segment_bound)
    return ConditionResult("c2_proxy", report.passed,
                           margin=-report.worst_deviation,
                           witnesses=() if report.passed else (report.note,),
                           note=report.note if report.passed else "")


@dataclass(frozen=True)
class ExactnessResult:
    """Trichotomy verdict with supporting evidence."""

    verdict: str  # "strong" | "weak" | "unknown"
    note: str = ""
    witness: str = ""


def check_exactness(
    optimality_residual: float,
    feasible_residual: float,
    check: PathCheck | None = None,
    unique_certificate: bool = False,
    tol: float = FEAS_TOL,
) -> ExactnessResult:
    """Judge relaxation exactness from one relaxation optimum.

    A feasible optimum confirms weak exactness (strong only with a
    uniqueness certificate, since strong exactness quantifies over every
    optimum).  An infeasible optimum whose restoration path preserves cost
    also confirms weak exactness; a strictly decreasing restoration refutes
    the claimed optimality instead.  The caller has measured the optimum:
    ``feasible_residual`` is its feasible-set residual, which is compared
    with ``tol`` here and never recomputed, and ``check`` is the
    :func:`~relaxcert.core.verify_path` result for its path, needed when
    the optimum is infeasible.  Only the path's end costs are read: the
    caller judges the path.
    """
    if optimality_residual > tol:
        raise PreconditionError(
            f"point is not relaxation-optimal (residual {optimality_residual:.3g})")
    if feasible_residual <= tol:
        if unique_certificate:
            return ExactnessResult(
                "strong", note="feasible optimum with uniqueness certificate")
        return ExactnessResult(
            "weak", note="optimum is feasible; strong exactness needs a "
                         "uniqueness certificate")
    if check is None:
        raise PreconditionError(
            f"optimum is infeasible (residual {feasible_residual:.3g}) and "
            "no path check was given")
    f0, f1 = check.costs[[0, -1]]
    if abs(f1 - f0) <= 1e-8 * (1.0 + abs(f0)):
        return ExactnessResult(
            "weak", note="restoration reaches a feasible point at equal cost")
    if f1 < f0:
        return ExactnessResult(
            "unknown",
            note="restoration strictly decreased the cost; the supplied point "
                 "cannot be relaxation-optimal",
            witness=f"feasible point with cost {f1:.12g} < {f0:.12g}")
    return ExactnessResult("unknown",
                           note="restoration increased the cost (broken factory)")


@dataclass(frozen=True)
class CertificateReport:
    """Aggregated verdicts; construction enforces the logical implications
    between the conditions (strict implies non-strict)."""

    c1: ConditionResult | None
    c2_proxy: ConditionResult | None
    c3: ConditionResult | None
    cprime: ConditionResult | None
    exactness: str
    sample_count: int
    seed: int
    tolerances: dict[str, float] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.c1 is not None and self.c3 is not None:
            if self.c1.passed and not self.c3.passed:
                raise ValueError("inconsistent report: strict condition passed "
                                 "while the non-strict one failed")
        if self.cprime is not None and self.c1 is not None:
            if self.cprime.passed and not self.c1.passed:
                raise ValueError("inconsistent report: proportional decrease "
                                 "passed while the strict condition failed")
        if self.exactness not in ("strong", "weak", "unknown"):
            raise ValueError(f"unknown exactness verdict {self.exactness!r}")

    @property
    def all_passed(self) -> bool:
        checks = [c for c in (self.c1, self.c2_proxy, self.c3, self.cprime)
                  if c is not None]
        return all(c.passed for c in checks)

    def as_dict(self) -> dict[str, Any]:
        def cond(c):
            return None if c is None else c.as_dict()

        return {
            "conditions": {
                "c1": cond(self.c1),
                "c2_proxy": cond(self.c2_proxy),
                "c3": cond(self.c3),
                "cprime": cond(self.cprime),
            },
            "exactness": self.exactness,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "tolerances": dict(self.tolerances),
            "notes": list(self.notes),
        }


# --- landscape classification ------------------------------------------------

@dataclass(frozen=True)
class LandscapeGrid:
    """Finite sample of a feasible set with costs and radius adjacency: the
    input of :func:`classify_local_optima`, whose points need not lie on a
    lattice.  :meth:`adjacency` finds the pairs within ``radius`` with a
    KD-tree.  The oracle scan builds no such grid; it sweeps its own mask
    (:func:`_lattice_sweep`).
    """

    points: np.ndarray
    costs: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        costs = np.asarray(self.costs, dtype=float)
        if pts.ndim != 2 or len(pts) != len(costs):
            raise ValueError("points must be (M, d) with matching costs")
        if len(pts) == 0:
            raise ValueError("grid is empty")
        if not self.radius > 0:  # also a NaN radius
            raise ValueError("radius must be positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "costs", costs)

    def adjacency(self) -> np.ndarray:
        """The undirected neighbor graph as an ``(E, 2)`` array of point
        index pairs ``(i, j)`` with ``i < j``, each edge once, from a
        KD-tree query within ``radius``."""
        import scipy.spatial  # slow to import; only classify input needs it

        tree = scipy.spatial.cKDTree(self.points)
        return tree.query_pairs(self.radius * (1 + 1e-9), output_type="ndarray")


def _stencil(shape: tuple[int, ...]) -> Iterator[tuple]:
    """Yield ``(offset, src, dst)`` for each lattice offset one or two unit
    steps long whose first nonzero entry is positive: ``src`` and ``dst``
    slice a lattice of ``shape`` so that ``dst`` holds the cell ``offset``
    away from the one ``src`` holds, later in C order.  Each undirected
    neighbor pair appears under exactly one offset."""
    for offset in itertools.product((-1, 0, 1), repeat=len(shape)):
        steps = [o for o in offset if o]
        if not 0 < len(steps) <= 2 or steps[0] < 0:
            continue
        src = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(offset, shape))
        dst = tuple(slice(max(0, o), n - max(0, -o)) for o, n in zip(offset, shape))
        yield offset, src, dst


def _lattice_sweep(lattice: np.ndarray, axes: Sequence[np.ndarray],
                   costs: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """One pass over the stencil of a feasibility mask.

    ``lattice`` is the mask, ``axes[k]`` the coordinates along its axis
    ``k`` and ``costs`` the costs of its set cells, the points, in C order.
    Two cells are neighbors exactly when their index offset lies in
    {-1, 0, 1}^d with one or two nonzero entries: 1 and sqrt(2) spacings
    apart, within the oracle's radius of 1.5 spacings, while sqrt(3) and
    any offset with a +-2 entry lie outside it.  Returns each point's
    cheapest neighbor cost (``inf`` without neighbors), the ``(P, 2)``
    point pairs of neighbors whose costs differ by at most
    ``EQUAL_COST_TOL``, and the largest cost slope over all neighbor pairs
    (0 without any).  Each offset compares two shifted slices of the cost
    lattice, ``inf`` off the mask.  A pair's distance sums, in axis order,
    the squares of its axis differences and takes the square root: the
    operations ``np.linalg.norm`` applies to the difference of the two
    points, on the same operands, so every slope keeps its bits.
    """
    cost = np.full(lattice.shape, np.inf)
    cost[lattice] = costs
    # each set cell's C-order point index; int32 halves the plateau pairs
    index = np.full(lattice.shape, -1, dtype=np.int32 if lattice.size < 2**31 else np.intp)
    index[lattice] = np.arange(len(costs))
    neighbor_min = np.full(lattice.shape, np.inf)
    buffer = np.empty(lattice.shape)  # each offset's gaps, then its slopes
    plateau = []
    max_slope = 0.0
    for offset, src, dst in _stencil(lattice.shape):
        a, b = cost[src], cost[dst]
        np.minimum(neighbor_min[src], b, out=neighbor_min[src])
        np.minimum(neighbor_min[dst], a, out=neighbor_min[dst])
        gap = buffer[tuple(slice(0, n) for n in a.shape)]
        with np.errstate(invalid="ignore"):  # inf - inf off the mask
            np.abs(np.subtract(a, b, out=gap), out=gap)
        flat = gap <= EQUAL_COST_TOL
        plateau.append(np.stack([index[src][flat], index[dst][flat]], axis=1))
        squares = 0.0
        for k, o in enumerate(offset):
            if o:
                diff = axes[k][src[k]] - axes[k][dst[k]]
                squares = squares + (diff * diff).reshape(
                    [-1 if m == k else 1 for m in range(lattice.ndim)])
        slopes = np.divide(gap, np.sqrt(squares), out=gap)
        both = lattice[src] & lattice[dst]
        max_slope = max(max_slope, float(slopes.max(initial=0.0, where=both)))
    return neighbor_min[lattice], np.concatenate(plateau), max_slope


# The landscape labels; a label code is an index into this array.
LABELS = np.array(["none", "global", "pseudo", "genuine"], dtype=object)


def _label_codes(costs: np.ndarray, neighbor_min: np.ndarray,
                 plateau: np.ndarray) -> np.ndarray:
    """Label code of each point, by the rule :func:`classify_local_optima`
    states, from its cost, its cheapest neighbor's cost and the ``(P, 2)``
    equal-cost neighbor pairs, whose connected components are the plateaus."""
    local = costs <= neighbor_min + EQUAL_COST_TOL
    global_opt = costs <= costs.min() + EQUAL_COST_TOL
    m = len(costs)
    graph = scipy.sparse.csr_matrix((np.ones(len(plateau)), tuple(plateau.T)), shape=(m, m))
    _, comp = scipy.sparse.csgraph.connected_components(graph, directed=False)
    comp_has_nonlocal = np.zeros(comp.max() + 1, dtype=bool)
    comp_has_nonlocal[comp[~local]] = True
    codes = np.where(global_opt, 1, np.where(comp_has_nonlocal[comp], 2, 3))
    codes[~local] = 0
    return codes


def classify_local_optima(grid: LandscapeGrid) -> np.ndarray:
    """Label each grid point none / global / pseudo / genuine.

    A discrete local optimum has no strictly cheaper neighbor; a plateau
    (equal-cost connected component) that reaches a non-local-optimum point
    turns its local optima into pseudo ones; local optima that are neither
    global nor pseudo are genuine.  The neighbor minima and the plateau
    pairs are gathered over the KD-tree edge list (:meth:`LandscapeGrid.adjacency`).
    """
    costs = grid.costs
    edges = grid.adjacency()
    i, j = edges.T
    neighbor_min = np.full(len(costs), np.inf)
    np.minimum.at(neighbor_min, i, costs[j])
    np.minimum.at(neighbor_min, j, costs[i])
    plateau = edges[np.abs(costs[i] - costs[j]) <= EQUAL_COST_TOL]
    return LABELS[_label_codes(costs, neighbor_min, plateau)]


# --- eliminated low-dimension models ------------------------------------------

@dataclass(frozen=True)
class GridProblem:
    """A problem reduced to few real degrees of freedom for scanning.

    ``model(*u)`` takes the ``dim`` coordinates of the point, each a float
    or an array of one common shape, and returns the cost and the tuples of
    inequality values (feasible iff <= 0) and equality values (feasible iff
    = 0 at scan tolerance), each of that shape.  Each formula is written
    once: the scan evaluates it on slabs of the lattice, :func:`_jacobian`
    on the columns of the ``2 * dim`` perturbed points, and the local solves
    on one point's floats.  The last ``scan_only`` inequality values trim
    the scan's equality band but are implied on the exact feasible set; the
    scan and the refutation keep them, :func:`multistart_local_search`
    drops them.
    """

    dim: int
    lower: np.ndarray
    upper: np.ndarray
    model: Callable[..., tuple[Any, tuple, tuple]]
    eq_scale: float = 1.0
    scan_only: int = 0

    def at(self, u: np.ndarray) -> tuple[Any, tuple, tuple]:
        """The model at the point ``u``, evaluated on its Python floats."""
        return self.model(*u.tolist())

    def feasibility_residual(self, u: np.ndarray, eq_tol: float,
                             values: tuple) -> float:
        """Worst violation at the point ``u``, with the equalities met to
        ``eq_tol``, from ``values = self.at(u)``."""
        _, ineqs, eqs = values
        return float(np.max([0.0, *ineqs, *(np.abs(eqs) - eq_tol),
                             *(self.lower - u), *(u - self.upper)]))


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive scan outcome over the feasible grid."""

    global_cost: float
    global_points: np.ndarray
    labels: np.ndarray
    label_counts: dict[str, int]
    points: np.ndarray
    costs: np.ndarray
    n_components: int
    max_slope: float
    resolution: float
    artifacts_refuted: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "global_cost": self.global_cost,
            "global_points": self.global_points.tolist(),
            "label_counts": dict(self.label_counts),
            "feasible_points": int(len(self.points)),
            "connected_components": self.n_components,
            "max_slope": self.max_slope,
            "resolution": self.resolution,
            "artifacts_refuted": self.artifacts_refuted,
        }


def _jacobian(problem: GridProblem,
              u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Central-difference cost gradient ``(dim,)`` and inequality and
    equality Jacobians ``(rows, dim)`` at ``u``, from one model call on the
    columns of the ``2 * dim`` perturbed points."""
    step = 1e-6 * np.maximum(1.0, np.abs(u))
    shift = np.diag(step)
    cost, ineqs, eqs = problem.model(*np.concatenate([u + shift, u - shift]).T)
    d, width = len(u), 2 * step

    def rows(values: tuple) -> np.ndarray:
        return np.array([(v[:d] - v[d:]) / width for v in values]).reshape(-1, d)

    return (cost[:d] - cost[d:]) / width, rows(ineqs), rows(eqs)


def _slsqp_model(problem: GridProblem, u: np.ndarray):
    """SLSQP's view of ``problem``: ``values(w)`` (:meth:`GridProblem.at`),
    ``jac(w)`` (:func:`_jacobian`), and the scalar cost, its gradient and the
    constraint dicts; ``u`` only sizes the constraint sets.  SLSQP asks for
    the values and the Jacobians at a point through separate closures, and
    the checks after a solve ask again; all share one model evaluation and
    one :func:`_jacobian` per point through a memo of the last point."""
    def last_point(evaluate):
        last = [None, None]  # the point's bytes and its result

        def at(w: np.ndarray):
            if last[0] != (key := w.tobytes()):
                last[:] = key, evaluate(problem, w)
            return last[1]
        return at

    values, jac = last_point(GridProblem.at), last_point(_jacobian)
    _, ineqs, eqs = values(u)
    cons = []
    if ineqs:
        cons.append({"type": "ineq", "fun": lambda w: -np.array(values(w)[1]),
                     "jac": lambda w: -jac(w)[1]})
    if eqs:
        cons.append({"type": "eq", "fun": lambda w: np.array(values(w)[2]),
                     "jac": lambda w: jac(w)[2]})
    return values, jac, (lambda w: float(values(w)[0]), lambda w: jac(w)[0], cons)


def _improving_segment(problem: GridProblem, u: np.ndarray, w: np.ndarray,
                       eq_band: float) -> bool:
    """Check that the segment from ``u`` to ``w`` stays feasible with
    non-increasing cost; this puts cheaper feasible points arbitrarily close
    to ``u`` and therefore refutes its local optimality at every scale."""
    seg = u + np.linspace(0.0, 1.0, 33)[:, None] * (w - u)
    costs, ineqs, eqs = problem.model(*seg.T)
    if (np.max(ineqs, initial=-np.inf) > 1e-9
            or np.max(np.abs(eqs), initial=0.0) > eq_band):
        return False
    slack = MONOTONE_SLACK * (1.0 + np.abs(costs[:-1]))
    return not np.any(np.diff(costs) > slack)


def _refute_local_candidate(problem: GridProblem, u: np.ndarray,
                            cost_u: float, radius: float,
                            eq_band: float) -> bool:
    """Try to produce a feasible improving segment leaving a discrete
    local-optimum candidate.

    Grid filtering staircases curved constraint boundaries, which mints
    spurious discrete local optima.  A nearby cheaper point of the smooth
    model reached by a feasible monotone segment witnesses that the
    candidate is such an artifact and not a local optimum of the continuum.
    """
    import scipy.optimize  # slow to import; only the landscape layer needs it

    values, _, (scalar_cost, cost_jac, cons) = _slsqp_model(problem, u)
    improve_tol = max(1e-12, 1e-10 * (1.0 + abs(cost_u)))

    for scale in (1.0, 2.0, 4.0, 8.0):
        r = scale * radius
        lo = np.maximum(problem.lower, u - r)
        hi = np.minimum(problem.upper, u + r)
        res = scipy.optimize.minimize(
            scalar_cost, u, method="SLSQP", jac=cost_jac,
            bounds=list(zip(lo, hi)), constraints=cons,
            options={"ftol": 1e-14, "maxiter": 120})
        w = np.clip(res.x, lo, hi)
        band = max(eq_band, 1e-9)
        feas = problem.feasibility_residual(w, band, values(w)) <= 1e-9
        if (feas and scalar_cost(w) < cost_u - improve_tol
                and _improving_segment(problem, u, w, band)):
            return True
    return False


def _axis_lengths(problem: GridProblem, resolution: float) -> list[int | float]:
    """Length of each scan axis, computed as ``np.arange`` does, before any
    axis is allocated; ``inf`` where that length is not a finite number."""
    with np.errstate(over="ignore"):  # an overflowing span is an infinite axis
        spans = (problem.upper + resolution / 2 - problem.lower) / resolution
    return [max(0, math.ceil(s)) if math.isfinite(s) else math.inf for s in spans]


def brute_force_oracle(problem: GridProblem, resolution: float) -> OracleResult:
    """Exhaustive grid scan of the feasible set at the given resolution.

    Equality constraints are filtered at ``eq_scale * resolution`` since a
    grid cannot hit a manifold exactly; inequality constraints are filtered
    at 1e-9.  Every non-global local-optimum label is then re-examined
    against the smooth model: an SLSQP solve driven by central-difference
    Jacobians proposes a cheaper nearby point, and the label becomes
    ``none`` only when that point passes ``feasibility_residual`` and a
    sampled monotone segment (:func:`_refute_local_candidate`).

    The axis lengths are checked against the scan budget before any axis
    is allocated.  The model fills one boolean mask slab by slab, each
    slab whole rows of the leading axis and at most ``SCAN_SLAB_CELLS``
    cells unless one row is longer, so the mask is the only array the size
    of the lattice; the feasible points are read from its set cells and the
    axis values, and their costs are kept from the slabs' evaluations, in
    the same C order.  The mask and the axes are cut to the bounding box
    of its feasible cells: one sweep over the stencil offsets of the cut
    mask gives the neighbor minima, the plateau pairs and the slope bound
    (:func:`_lattice_sweep`), and the component count labels the cut mask
    in place with that stencil (``scipy.ndimage.label``).

    A resolution that is not a positive finite number, or an axis with a
    non-finite bound or a lower bound above its upper one, raises
    ``ValueError`` before any axis is sized.
    """
    if problem.dim > ORACLE_DIM_LIMIT:
        raise DimensionGuardError(
            f"{problem.dim} degrees of freedom exceed the scan guard "
            f"({ORACLE_DIM_LIMIT})")
    if not 0 < resolution < math.inf:  # also NaN
        raise ValueError(f"resolution must be a positive finite number, got {resolution}")
    for k, (lo, hi) in enumerate(zip(problem.lower, problem.upper)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"scan axis {k} has a non-finite bound: lower {lo}, upper {hi}")
        if lo > hi:
            raise ValueError(f"scan axis {k} is empty: lower {lo} > upper {hi}")
    import scipy.ndimage  # slow to import; only the oracle needs it

    sizes = _axis_lengths(problem, resolution)
    total = math.prod(sizes)
    if not total <= ORACLE_POINT_LIMIT:  # also a non-finite total
        shown = total if total < 10**12 else "over 10^12"
        raise DimensionGuardError(
            f"grid of {shown} points exceeds the scan budget; "
            "coarsen the resolution")
    axes = [np.arange(problem.lower[i], problem.upper[i] + resolution / 2,
                      resolution) for i in range(problem.dim)]
    eq_band = problem.eq_scale * resolution
    mask = np.ones(sizes, dtype=bool)
    step = max(1, SCAN_SLAB_CELLS // max(1, math.prod(sizes[1:])))
    slab_costs = []
    for start in range(0, sizes[0], step):
        slab = mask[start:start + step]
        cost, ineqs, eqs = problem.model(*np.meshgrid(
            axes[0][start:start + step], *axes[1:], indexing="ij"))
        for g in ineqs:
            slab &= g <= 1e-9
        for h in eqs:
            slab &= np.abs(h) <= eq_band
        slab_costs.append(cost[slab])
    del cost, ineqs, eqs  # the last slab's model values
    if not mask.any():
        raise InfeasibleAtResolutionError(
            f"no feasible grid point at resolution {resolution}")

    costs = np.concatenate(slab_costs)
    del slab_costs  # the joined costs are the only copy kept
    pts = np.stack([axis[cells] for axis, cells in zip(axes, np.nonzero(mask))],
                   axis=1)
    box = _bounding_box(mask)
    lattice = mask[box]
    neighbor_min, plateau, max_slope = _lattice_sweep(
        lattice, [axis[cut] for axis, cut in zip(axes, box)], costs)
    codes = _label_codes(costs, neighbor_min, plateau)

    refuted = 0
    for i in np.flatnonzero(codes >= 2):  # pseudo and genuine
        if _refute_local_candidate(problem, pts[i], float(costs[i]),
                                   radius=1.5 * resolution, eq_band=eq_band):
            codes[i] = 0
            refuted += 1

    _, n_comp = scipy.ndimage.label(
        lattice, structure=scipy.ndimage.generate_binary_structure(problem.dim, 2))
    gmin = float(costs.min())
    gmask = costs <= gmin + EQUAL_COST_TOL
    counts = dict(zip(LABELS, np.bincount(codes, minlength=len(LABELS)).tolist()))
    return OracleResult(
        global_cost=gmin, global_points=pts[gmask], labels=LABELS[codes],
        label_counts=counts, points=pts, costs=costs, n_components=int(n_comp),
        max_slope=max_slope, resolution=resolution, artifacts_refuted=refuted)


def _bounding_box(mask: np.ndarray) -> tuple[slice, ...]:
    """The slices of the smallest box of ``mask`` that holds all its set
    cells, which keep their C order and their neighbor pairs there."""
    box = []
    for k in range(mask.ndim):
        others = tuple(m for m in range(mask.ndim) if m != k)
        hit = np.flatnonzero(mask.any(axis=others))
        box.append(slice(hit[0], hit[-1] + 1))
    return tuple(box)


# --- multistart local search ---------------------------------------------------

@dataclass(frozen=True)
class LocalSearchRun:
    point: np.ndarray
    cost: float
    first_order_residual: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class MultistartOutcome:
    runs: tuple[LocalSearchRun, ...]
    note: str = ""

    @property
    def converged_costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.runs if r.converged])


def _kkt_residual(problem: GridProblem, u: np.ndarray, values: tuple,
                  jacobian: tuple) -> float:
    """Stationarity residual at ``u`` via nonnegative least squares over the
    active constraint gradients (equality multipliers are sign-split), from
    ``values = problem.at(u)`` and ``jacobian = _jacobian(problem, u)``."""
    grad_f, ineq, eq = jacobian
    active = np.array(values[1]) > -KKT_ACTIVE_TOL
    eye = np.eye(problem.dim)
    rows = np.concatenate([
        ineq[active], eq, -eq,
        -eye[u - problem.lower < KKT_ACTIVE_TOL],
        eye[problem.upper - u < KKT_ACTIVE_TOL]])
    if not len(rows):
        return float(np.max(np.abs(grad_f)))
    import scipy.optimize  # slow to import; only the landscape layer needs it

    lam, _ = scipy.optimize.nnls(rows.T, -grad_f)
    return float(np.max(np.abs(grad_f + rows.T @ lam)))


def _project_start(problem: GridProblem, u: np.ndarray,
                   tol: float) -> np.ndarray | None:
    """Clip ``u`` to the box, then take minimum-norm Gauss–Newton steps
    (:func:`_jacobian`, ``lstsq``) on the equality rows and the violated
    inequality rows until feasible; ``None`` if not feasible within
    ``PROJECTION_STEPS`` passes.  A feasible start is returned as it is."""
    u = np.clip(u, problem.lower, problem.upper)
    for _ in range(PROJECTION_STEPS):
        at_u = problem.at(u)
        if problem.feasibility_residual(u, 0.0, at_u) <= tol:
            return u
        _, ineqs, eqs = at_u
        _, ineq_jac, eq_jac = _jacobian(problem, u)
        violated = np.array(ineqs) > 0
        rows = np.concatenate([eq_jac, ineq_jac[violated]])
        values = np.concatenate([eqs, np.array(ineqs)[violated]])
        u = np.clip(u - np.linalg.lstsq(rows, values, rcond=None)[0],
                    problem.lower, problem.upper)
    return None


def multistart_local_search(
    problem: GridProblem,
    starts: int,
    seed: int = 0,
    tol: float = 1e-6,
) -> MultistartOutcome:
    """Deterministic local searches from quasi-random feasible starts.

    The candidates are the first ``2**m >= max(8 * starts, 16)`` points of
    the scrambled Sobol sequence of :func:`relaxcert.qmc.sobol`, bit for bit
    those of ``scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed)``.  They
    are projected onto the model without its scan-only rows
    (:func:`_project_start`), which the local solves and the KKT test also
    use, and the first ``starts`` feasible ones are kept.  Each run is a
    bounded smooth local solve; convergence is accepted only when the point
    is feasible and its KKT stationarity residual (verified independently by
    nonnegative least squares on the active gradients) is at most ``tol``.
    ``starts`` is an integer from 1 to ``2**27`` (at most ``2**30``
    candidates); anything else raises ``ValueError`` before any draw.
    """
    if isinstance(starts, bool) or not isinstance(starts, numbers.Integral):
        raise ValueError(f"starts must be an integer, got {starts!r}")
    if not 1 <= starts <= MAX_STARTS:
        raise ValueError(f"starts must be between 1 and 2**27, got {starts}")
    import scipy.optimize  # slow to import; only the landscape layer needs it

    from relaxcert.qmc import sobol

    if problem.scan_only:
        keep, full = slice(-problem.scan_only), problem.model

        def model(*u):
            cost, ineqs, eqs = full(*u)
            return cost, ineqs[keep], eqs

        problem = replace(problem, scan_only=0, model=model)
    raw = sobol(problem.dim, (max(8 * int(starts), 16) - 1).bit_length(), seed)
    candidates = problem.lower + raw * (problem.upper - problem.lower)

    seeds: list[np.ndarray] = []
    for u in candidates:
        projected = _project_start(problem, u, tol=1e-7)
        if projected is not None:
            seeds.append(projected)
        if len(seeds) == starts:
            break
    note = ""
    if len(seeds) < starts:
        note = (f"only {len(seeds)} of {starts} requested starts were "
                "feasible after projection")
    if not seeds:
        return MultistartOutcome(runs=(), note=note)

    values, jac, (scalar_cost, cost_jac, cons) = _slsqp_model(problem, seeds[0])
    bounds = list(zip(problem.lower, problem.upper))

    runs: list[LocalSearchRun] = []
    for u0 in seeds:
        with warnings.catch_warnings():
            # SLSQP emits a RuntimeWarning whenever it clips to the bounds
            warnings.simplefilter("ignore", RuntimeWarning)
            res = scipy.optimize.minimize(
                scalar_cost, u0, method="SLSQP", jac=cost_jac, bounds=bounds,
                constraints=cons, options={"ftol": 1e-12, "maxiter": 400})
        u = np.clip(res.x, problem.lower, problem.upper)
        feas = problem.feasibility_residual(u, 0.0, values(u))
        kkt = _kkt_residual(problem, u, values(u), jac(u))
        converged = bool(feas <= 1e-6 and kkt <= tol)
        runs.append(LocalSearchRun(
            point=u, cost=scalar_cost(u), first_order_residual=kkt,
            converged=converged, iterations=int(res.nit)))

    if not any(r.converged for r in runs):
        note = (note + "; " if note else "") + "no run met the convergence test"
    return MultistartOutcome(runs=tuple(runs), note=note)


# --- eliminated OPF model ------------------------------------------------------

def eliminated_opf_grid(net: RadialNetwork, cost: OpfCost) -> GridProblem:
    """Reduce a radial instance to line-power degrees of freedom.

    The root voltage and every line's complex sending-end power determine
    the whole operating point through the power-flow recursion
    :func:`~relaxcert.distflow.distflow` with the cone held at equality;
    boxes become smooth inequalities of the reduced variables.  The root
    voltage is a degree of freedom unless its box is degenerate.  An empty
    box raises :class:`PreconditionError` naming its bus or line.
    """
    empty = empty_box(net)
    if empty:
        raise PreconditionError(empty)
    n, e = net.n_bus, net.n_line
    root = net.bus_index[net.root]
    lines = sorted(net.line_table)  # line order, the order of the injection sums
    root_pinned = net.v_max[root] - net.v_min[root] <= 1e-12
    dim = 2 * e + (0 if root_pinned else 1)

    s_radius = np.sqrt(net.v_max[net.tail_idx] * net.l_max)
    lower = np.concatenate([-s_radius, -s_radius,
                            [] if root_pinned else [net.v_min[root]]])
    upper = np.concatenate([s_radius, s_radius,
                            [] if root_pinned else [net.v_max[root]]])

    # the root voltage is either a boxed variable or a constant; its box
    # rows would be identically zero and only degrade the local solves
    free_bus = [j for j in range(n) if j != root or not root_pinned]
    v_min = list(zip(free_bus, net.v_min[free_bus].tolist()))
    v_max = list(zip(free_bus, net.v_max[free_bus].tolist()))
    l_max = list(enumerate(net.l_max.tolist()))
    p_max = list(enumerate(net.s_max.real.tolist()))
    q_max = list(enumerate(net.s_max.imag.tolist()))
    # unbounded injections have no lower-bound rows
    p_min, q_min = ([(j, b) for j, b in enumerate(lo.tolist()) if math.isfinite(b)]
                    for lo in (net.s_min.real, net.s_min.imag))

    def model(*u):
        P, Q = u[:e], u[e:2 * e]
        root_v = np.full(np.shape(u[0]), net.v_min[root]) if root_pinned else u[-1]
        v, ell, bad = distflow(net, root_v, P, Q,
                               [p * p + q * q for p, q in zip(P, Q)], floor=1e-9)
        if bad.any():  # rejected points; keep their injections finite
            ell[:, bad] = 0.0
        sp, sq = [0.0] * n, [0.0] * n
        for k, t, h, zr, zi, _ in lines:
            sp[t] = sp[t] + P[k]
            sq[t] = sq[t] + Q[k]
            sp[h] = sp[h] - (P[k] - zr * ell[k])
            sq[h] = sq[h] - (Q[k] - zi * ell[k])
        rows = (*(b - v[j] for j, b in v_min), *(v[j] - b for j, b in v_max),
                *(ell[k] - b for k, b in l_max),
                *(b - sp[j] for j, b in p_min), *(sp[j] - b for j, b in p_max),
                *(b - sq[j] for j, b in q_min), *(sq[j] - b for j, b in q_max))
        # bus last: one point's injections are an (n,) vector, a stack's an
        # (M, n) matrix
        sp, sq = np.stack(sp, axis=-1), np.stack(sq, axis=-1)
        value = (sp @ cost.cp + sq @ cost.cq
                 + (sp * sp) @ cost.qp + (sq * sq) @ cost.qq)
        if bad.any():  # [()] leaves one point's values scalars
            return (np.where(bad, 1e6, value)[()],
                    tuple(np.where(bad, 1e6, g)[()] for g in rows), ())
        return value, rows, ()

    return GridProblem(dim=dim, lower=lower, upper=upper, model=model)


def psd_slice_grid_problem(inst) -> GridProblem:
    """Scan model for a real 2x2 rank-constrained SDP: free variables are
    the three distinct symmetric entries; feasible-set membership adds the
    determinant equality on top of PSD inequalities."""
    from relaxcert.lrsdp import LrsdpInstance

    if not isinstance(inst, LrsdpInstance):
        raise TypeError("expected an LrsdpInstance")
    if inst.n != 2 or not inst.is_real or inst.r != 1:
        raise DimensionGuardError(
            "the slice scan covers real 2x2 instances with target rank 1")
    B = 1.2 * max(1.0, float(np.max(np.abs(inst.b))))
    C = inst.C.real
    c00, c01x2, c11 = float(C[0, 0]), 2 * float(C[0, 1]), float(C[1, 1])
    # one row (A00, 2 A01, A11, b) per trace constraint
    coef = [(float(Ai[0, 0].real), 2 * float(Ai[0, 1].real), float(Ai[1, 1].real),
             float(bi)) for Ai, bi in zip(inst.A, inst.b)]

    def model(x00, x01, x11):
        return (c00 * x00 + c01x2 * x01 + c11 * x11,
                (-x00, -x11, x01 * x01 - x00 * x11),
                (*(a00 * x00 + a01x2 * x01 + a11 * x11 - bk
                   for a00, a01x2, a11, bk in coef),
                 x00 * x11 - x01 * x01))

    return GridProblem(  # x01^2 <= x00 x11 restates det X = 0: scan-only
        dim=3, lower=np.full(3, -B), upper=np.full(3, B), model=model,
        eq_scale=4.0 * B, scan_only=1)
