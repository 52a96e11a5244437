"""Certificate checkers and desk-scale verification oracles.

Condition checks are sampled, never symbolic: monotone-path conditions are
verified on finitely many relaxed points, uniform regularity through the
bounded-segment proxy, and global statements through an exhaustive grid
oracle plus deterministic multistart local search on eliminated low-dimension
models.

The scipy modules that only the landscape layer uses here (``scipy.optimize``,
``scipy.spatial``, ``scipy.stats``) are imported inside the functions that
call them, so ``relaxcert opf``, ``lrsdp`` and ``certify`` never load them.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from relaxcert.compose import CertifiedProblem
from relaxcert.core import (
    FEAS_TOL,
    MONOTONE_SLACK,
    CertificateViolationError,
    PathTrace,
    PreconditionError,
    check_piecewise_linear_family,
    verify_path,
)
from relaxcert.distflow import OpfCost, RadialNetwork, distflow

EQUAL_COST_TOL = 1e-9     # plateau detection and global-cost ties
ORACLE_DIM_LIMIT = 4      # ambient real dimension guard for the grid scan
ORACLE_POINT_LIMIT = 2 * 10**7
KKT_ACTIVE_TOL = 1e-6     # slack below which the KKT test counts a constraint active


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
    relaxed = handle.residual_relaxed(points)
    feasible = handle.residual_feasible(points)
    for idx, x in enumerate(points):
        rr, rf = relaxed[idx], feasible[idx]
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
    problem: CertifiedProblem,
    relaxation_optimum: np.ndarray,
    optimality_residual: float,
    unique_certificate: bool = False,
    tol: float = FEAS_TOL,
    path: PathTrace | None = None,
) -> ExactnessResult:
    """Judge relaxation exactness from one relaxation optimum.

    A feasible optimum confirms weak exactness (strong only with a
    uniqueness certificate, since strong exactness quantifies over every
    optimum).  An infeasible optimum whose restoration path preserves cost
    also confirms weak exactness; a strictly decreasing restoration refutes
    the claimed optimality instead.  ``path`` is the optimum's restoration
    path when the caller has built it already; otherwise the problem's
    factory builds it.  Only its end costs are read: the caller verifies it.
    """
    if optimality_residual > tol:
        raise PreconditionError(
            f"point is not relaxation-optimal (residual {optimality_residual:.3g})")
    x = np.asarray(relaxation_optimum, dtype=complex)
    handle = problem.handle
    if handle.residual_feasible(x) <= tol:
        if unique_certificate:
            return ExactnessResult(
                "strong", note="feasible optimum with uniqueness certificate")
        return ExactnessResult(
            "weak", note="optimum is feasible; strong exactness needs a "
                         "uniqueness certificate")

    trace = problem.path_factory(x) if path is None else path
    f0, f1 = handle.cost(trace.points[[0, -1]])
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
    """Finite sample of a feasible set with costs and radius adjacency.

    ``lattice``, when set, is the boolean feasibility mask of a regular grid
    whose ``True`` cells are ``points`` in C order, and ``radius`` is 1.5
    grid spacings (only :func:`brute_force_oracle` builds such a grid).
    Two cells are then neighbors exactly when their index offset lies in
    {-1, 0, 1}^d with one or two nonzero entries: those are 1 and sqrt(2)
    spacings apart, while sqrt(3) and any offset with a +-2 entry lie
    outside the radius, so :meth:`adjacency` takes its pairs from that
    stencil.  Without a lattice (arbitrary ``classify`` points) a KD-tree
    finds the pairs within ``radius``.
    """

    points: np.ndarray
    costs: np.ndarray
    radius: float
    lattice: np.ndarray | None = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        costs = np.asarray(self.costs, dtype=float)
        if pts.ndim != 2 or len(pts) != len(costs):
            raise ValueError("points must be (M, d) with matching costs")
        if len(pts) == 0:
            raise ValueError("grid is empty")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.lattice is not None:
            lattice = np.asarray(self.lattice, dtype=bool)
            if lattice.ndim != pts.shape[1] or np.count_nonzero(lattice) != len(pts):
                raise ValueError("lattice must be a d-dimensional mask with one "
                                 "True cell per point")
            object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "costs", costs)

    def adjacency(self) -> np.ndarray:
        """The undirected neighbor graph as an ``(E, 2)`` array of point
        index pairs ``(i, j)`` with ``i < j``, each edge once."""
        if self.lattice is None:
            import scipy.spatial  # slow to import; only classify input needs it

            tree = scipy.spatial.cKDTree(self.points)
            return tree.query_pairs(self.radius * (1 + 1e-9), output_type="ndarray")
        return _stencil_pairs(self.lattice)


def _stencil_pairs(lattice: np.ndarray) -> np.ndarray:
    """Point-index pairs of set lattice cells one or two unit steps apart.

    Each offset with a positive first nonzero entry is one shifted-slice
    comparison of the C-order point index laid out on the lattice; the
    shifted cell comes later in C order, so every pair has ``i < j``.
    """
    # int32 halves the pair arrays
    index = np.full(lattice.shape, -1,
                    dtype=np.int32 if lattice.size < 2**31 else np.intp)
    index[lattice] = np.arange(np.count_nonzero(lattice))
    pairs = []
    for offset in itertools.product((-1, 0, 1), repeat=lattice.ndim):
        steps = [o for o in offset if o]
        if not 0 < len(steps) <= 2 or steps[0] < 0:
            continue
        src = index[tuple(slice(max(0, -o), n - max(0, o))
                          for o, n in zip(offset, lattice.shape))]
        dst = index[tuple(slice(max(0, o), n - max(0, -o))
                          for o, n in zip(offset, lattice.shape))]
        both = (src >= 0) & (dst >= 0)
        pairs.append(np.stack([src[both], dst[both]], axis=1))
    return np.concatenate(pairs)


def _components(m: int, i: np.ndarray, j: np.ndarray) -> tuple[int, np.ndarray]:
    """Count and labels of the connected components of the undirected
    graph on ``m`` points with the edges ``(i[k], j[k])``."""
    graph = scipy.sparse.csr_matrix((np.ones(len(i)), (i, j)), shape=(m, m))
    return scipy.sparse.csgraph.connected_components(graph, directed=False)


def classify_local_optima(grid: LandscapeGrid,
                          edges: np.ndarray | None = None) -> np.ndarray:
    """Label each grid point none / global / pseudo / genuine.

    A discrete local optimum has no strictly cheaper neighbor; a plateau
    (equal-cost connected component) that reaches a non-local-optimum point
    turns its local optima into pseudo ones; local optima that are neither
    global nor pseudo are genuine.  ``edges`` is ``grid.adjacency()`` when
    the caller has built it already.
    """
    i, j = (grid.adjacency() if edges is None else edges).T
    m = len(grid.points)
    costs = grid.costs

    neighbor_min = np.full(m, np.inf)
    np.minimum.at(neighbor_min, i, costs[j])
    np.minimum.at(neighbor_min, j, costs[i])
    local = costs <= neighbor_min + EQUAL_COST_TOL

    global_opt = costs <= costs.min() + EQUAL_COST_TOL

    flat = np.abs(costs[i] - costs[j]) <= EQUAL_COST_TOL
    _, comp = _components(m, i[flat], j[flat])
    comp_has_nonlocal = np.zeros(comp.max() + 1, dtype=bool)
    np.logical_or.at(comp_has_nonlocal, comp[~local], True)

    pseudo = local & ~global_opt & comp_has_nonlocal[comp]
    genuine = local & ~global_opt & ~pseudo

    labels = np.full(m, "none", dtype=object)
    labels[global_opt & local] = "global"
    labels[pseudo] = "pseudo"
    labels[genuine] = "genuine"
    return labels


# --- eliminated low-dimension models ------------------------------------------

@dataclass(frozen=True)
class GridProblem:
    """A problem reduced to few real degrees of freedom for scanning.

    ``cost`` ``(M,)``, ``inequalities`` ``(M, p)`` (feasible iff <= 0) and
    ``equalities`` ``(M, q)`` (feasible iff = 0 at scan tolerance) are
    vectorized over ``(M, dim)`` inputs, so the scan evaluates the whole
    lattice at once and one call on ``2 * dim`` perturbed points gives a
    central-difference Jacobian (:func:`_jacobian`) for SLSQP and the KKT
    test.  ``anchor`` is a known feasible point used to repair infeasible
    multistart seeds.
    """

    dim: int
    lower: np.ndarray
    upper: np.ndarray
    cost: Callable[[np.ndarray], np.ndarray]
    inequalities: Callable[[np.ndarray], np.ndarray]
    equalities: Callable[[np.ndarray], np.ndarray]
    eq_scale: float = 1.0
    anchor: np.ndarray | None = None

    def feasibility_residual(self, U: np.ndarray, eq_tol_len: float) -> np.ndarray:
        """Worst violation per row, with equalities scaled to the grid."""
        U = np.atleast_2d(U)
        viol = np.zeros(len(U))
        ineq = self.inequalities(U)
        if ineq.shape[1]:
            viol = np.maximum(viol, ineq.max(axis=1))
        eq = self.equalities(U)
        if eq.shape[1]:
            viol = np.maximum(viol, np.abs(eq).max(axis=1) - eq_tol_len)
        box = np.maximum(self.lower[None, :] - U, U - self.upper[None, :])
        viol = np.maximum(viol, box.max(axis=1))
        return viol


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


def _jacobian(fn: Callable[[np.ndarray], np.ndarray], u: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian ``(rows, dim)`` of a vectorized
    :class:`GridProblem` callable at ``u``, from one call on the stack of
    the ``2 * dim`` perturbed points; a cost gives one row."""
    step = 1e-6 * np.maximum(1.0, np.abs(u))
    shift = np.diag(step)
    vals = fn(np.concatenate([u + shift, u - shift]))
    d = len(u)
    return np.atleast_2d((vals[:d] - vals[d:]).T / (2 * step))


def _slsqp_model(problem: GridProblem, u: np.ndarray):
    """SLSQP's view of ``problem``: the scalar cost, its gradient and the
    constraint dicts, each with its :func:`_jacobian`; ``u`` only sizes the
    constraint sets."""
    def cost(w: np.ndarray) -> float:
        return float(problem.cost(w[None, :])[0])

    cons = []
    if problem.inequalities(u[None, :]).shape[1]:
        cons.append({"type": "ineq",
                     "fun": lambda w: -problem.inequalities(w[None, :])[0],
                     "jac": lambda w: -_jacobian(problem.inequalities, w)})
    if problem.equalities(u[None, :]).shape[1]:
        cons.append({"type": "eq",
                     "fun": lambda w: problem.equalities(w[None, :])[0],
                     "jac": lambda w: _jacobian(problem.equalities, w)})
    return cost, lambda w: _jacobian(problem.cost, w)[0], cons


def _improving_segment(problem: GridProblem, u: np.ndarray, w: np.ndarray,
                       eq_band: float) -> bool:
    """Check that the segment from ``u`` to ``w`` stays feasible with
    non-increasing cost; this puts cheaper feasible points arbitrarily close
    to ``u`` and therefore refutes its local optimality at every scale."""
    ts = np.linspace(0.0, 1.0, 33)
    seg = u[None, :] + ts[:, None] * (w - u)[None, :]
    ineq = problem.inequalities(seg)
    if ineq.shape[1] and ineq.max() > 1e-9:
        return False
    eq = problem.equalities(seg)
    if eq.shape[1] and np.abs(eq).max() > eq_band:
        return False
    costs = problem.cost(seg)
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

    scalar_cost, cost_jac, cons = _slsqp_model(problem, u)
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
        feas = problem.feasibility_residual(w[None, :], band)[0] <= 1e-9
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
    is allocated.  The feasibility mask stays on the grid as the
    ``LandscapeGrid`` lattice, so the neighbor graph comes from the index
    stencil, not from a KD-tree over the feasible points.  Distances and
    cost slopes are taken once per undirected edge.
    """
    if problem.dim > ORACLE_DIM_LIMIT:
        raise DimensionGuardError(
            f"{problem.dim} degrees of freedom exceed the scan guard "
            f"({ORACLE_DIM_LIMIT})")
    sizes = _axis_lengths(problem, resolution)
    total = math.prod(sizes)
    if not total <= ORACLE_POINT_LIMIT:  # also a non-finite total
        shown = total if total < 10**12 else "over 10^12"
        raise DimensionGuardError(
            f"grid of {shown} points exceeds the scan budget; "
            "coarsen the resolution")
    axes = [np.arange(problem.lower[i], problem.upper[i] + resolution / 2,
                      resolution) for i in range(problem.dim)]
    U = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    mask = problem.inequalities(U).max(axis=1, initial=-np.inf) <= 1e-9
    mask &= (np.abs(problem.equalities(U)).max(axis=1, initial=0.0)
             <= problem.eq_scale * resolution)
    if not mask.any():
        raise InfeasibleAtResolutionError(
            f"no feasible grid point at resolution {resolution}")

    pts = U[mask]
    costs = problem.cost(pts)
    grid = LandscapeGrid(points=pts, costs=costs, radius=1.5 * resolution,
                         lattice=mask.reshape(sizes))
    edges = grid.adjacency()
    labels = classify_local_optima(grid, edges)

    refuted = 0
    eq_band = problem.eq_scale * resolution
    for i in np.flatnonzero((labels == "genuine") | (labels == "pseudo")):
        if _refute_local_candidate(problem, pts[i], float(costs[i]),
                                   radius=1.5 * resolution, eq_band=eq_band):
            labels[i] = "none"
            refuted += 1

    i, j = edges.T
    n_comp, _ = _components(len(pts), i, j)
    dists = np.linalg.norm(pts[i] - pts[j], axis=1)
    slopes = np.abs(costs[i] - costs[j]) / dists
    max_slope = float(slopes.max(initial=0.0))

    gmin = float(costs.min())
    gmask = costs <= gmin + EQUAL_COST_TOL
    counts = {k: int(np.sum(labels == k))
              for k in ("none", "global", "pseudo", "genuine")}
    return OracleResult(
        global_cost=gmin, global_points=pts[gmask], labels=labels,
        label_counts=counts, points=pts, costs=costs, n_components=int(n_comp),
        max_slope=max_slope, resolution=resolution, artifacts_refuted=refuted)


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


def _kkt_residual(problem: GridProblem, u: np.ndarray) -> float:
    """Stationarity residual via nonnegative least squares over the active
    constraint gradients (equality multipliers are sign-split)."""
    grad_f = _jacobian(problem.cost, u)[0]
    eq = _jacobian(problem.equalities, u)
    active = problem.inequalities(u[None, :])[0] > -KKT_ACTIVE_TOL
    eye = np.eye(problem.dim)
    rows = np.concatenate([
        _jacobian(problem.inequalities, u)[active], eq, -eq,
        -eye[u - problem.lower < KKT_ACTIVE_TOL],
        eye[problem.upper - u < KKT_ACTIVE_TOL]])
    if not len(rows):
        return float(np.max(np.abs(grad_f)))
    import scipy.optimize  # slow to import; only the landscape layer needs it

    lam, _ = scipy.optimize.nnls(rows.T, -grad_f)
    return float(np.max(np.abs(grad_f + rows.T @ lam)))


def _repair_start(problem: GridProblem, u: np.ndarray,
                  tol: float) -> np.ndarray | None:
    if problem.feasibility_residual(u[None, :], 0.0)[0] <= tol:
        return u
    if problem.anchor is None:
        return None
    lo, hi = 0.0, 1.0  # blend toward the anchor until feasible
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        cand = problem.anchor + mid * (u - problem.anchor)
        if problem.feasibility_residual(cand[None, :], 0.0)[0] <= tol:
            lo = mid
        else:
            hi = mid
    cand = problem.anchor + lo * (u - problem.anchor)
    if problem.feasibility_residual(cand[None, :], 0.0)[0] <= tol:
        return cand
    return None


def multistart_local_search(
    problem: GridProblem,
    starts: int,
    seed: int = 0,
    tol: float = 1e-6,
) -> MultistartOutcome:
    """Deterministic local searches from quasi-random feasible starts.

    Each run is a bounded smooth local solve; convergence is accepted only
    when the point is feasible and its KKT stationarity residual (verified
    independently by nonnegative least squares on the active gradients) is
    at most ``tol``.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    import scipy.optimize  # slow to import; only the landscape layer needs it
    from scipy.stats import qmc  # scipy.stats is slow to import; few calls need it

    sampler = qmc.Sobol(d=problem.dim, scramble=True, seed=seed)
    raw = sampler.random_base2(int(np.ceil(np.log2(max(8 * starts, 16)))))
    candidates = problem.lower + raw * (problem.upper - problem.lower)

    seeds: list[np.ndarray] = []
    for u in candidates:
        repaired = _repair_start(problem, u, tol=1e-7)
        if repaired is not None:
            seeds.append(repaired)
        if len(seeds) == starts:
            break
    note = ""
    if len(seeds) < starts:
        note = (f"only {len(seeds)} of {starts} requested starts were "
                "feasible after repair")
    if not seeds:
        return MultistartOutcome(runs=(), note=note)

    scalar_cost, cost_jac, cons = _slsqp_model(problem, seeds[0])
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
        feas = float(problem.feasibility_residual(u[None, :], 0.0)[0])
        kkt = _kkt_residual(problem, u)
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
    voltage is a degree of freedom unless its box is degenerate.
    """
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

    def expand(U: np.ndarray):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        P, Q = U[:, :e].T, U[:, e:2 * e].T
        root_v = np.full(len(U), net.v_min[root]) if root_pinned else U[:, -1]
        v, ell, bad = distflow(net, root_v, P, Q, P ** 2 + Q ** 2, floor=1e-9)
        if bad.any():  # rejected rows; keep their injections finite
            ell[:, bad] = 0.0
        sp = np.zeros((len(U), n))
        sq = np.zeros((len(U), n))
        for k, t, h, zr, zi, _ in lines:
            sp[:, t] += P[k]
            sq[:, t] += Q[k]
            sp[:, h] -= P[k] - zr * ell[k]
            sq[:, h] -= Q[k] - zi * ell[k]
        return sp, sq, v.T, ell.T, bad

    def cost_fn(U: np.ndarray) -> np.ndarray:
        sp, sq, _, _, bad = expand(U)
        vals = (sp @ cost.cp + sq @ cost.cq
                + (sp ** 2) @ cost.qp + (sq ** 2) @ cost.qq)
        vals[bad] = 1e6
        return vals

    # the root voltage is either a boxed variable or a constant; its box
    # rows would be identically zero and only degrade the local solves
    free_bus = np.array([j for j in range(n) if j != root or not root_pinned],
                        dtype=int)
    v_min, v_max = net.v_min[free_bus], net.v_max[free_bus]
    # unbounded injections have no lower-bound rows
    lo_p = np.flatnonzero(np.isfinite(net.s_min.real))
    lo_q = np.flatnonzero(np.isfinite(net.s_min.imag))
    p_min, q_min = net.s_min.real[lo_p], net.s_min.imag[lo_q]

    def ineq_fn(U: np.ndarray) -> np.ndarray:
        sp, sq, v, ell, bad = expand(U)
        vf = v[:, free_bus]
        cols = [
            v_min - vf, vf - v_max, ell - net.l_max,
            p_min - sp[:, lo_p], sp - net.s_max.real,
            q_min - sq[:, lo_q], sq - net.s_max.imag,
        ]
        out = np.concatenate(cols, axis=1)
        out[bad] = 1e6
        return out

    def eq_fn(U: np.ndarray) -> np.ndarray:
        U = np.atleast_2d(U)
        return np.zeros((len(U), 0))

    anchor = np.zeros(dim)
    if not root_pinned:
        anchor[-1] = 0.5 * (net.v_min[root] + net.v_max[root])

    return GridProblem(
        dim=dim, lower=lower, upper=upper, cost=cost_fn,
        inequalities=ineq_fn, equalities=eq_fn, anchor=anchor)


def psd_slice_grid_problem(inst, bound: float | None = None) -> GridProblem:
    """Scan model for a real 2x2 rank-constrained SDP: free variables are
    the three distinct symmetric entries; feasible-set membership adds the
    determinant equality on top of PSD inequalities."""
    from relaxcert.lrsdp import LrsdpInstance

    if not isinstance(inst, LrsdpInstance):
        raise TypeError("expected an LrsdpInstance")
    if inst.n != 2 or not inst.is_real or inst.r != 1:
        raise DimensionGuardError(
            "the slice scan covers real 2x2 instances with target rank 1")
    B = bound if bound is not None else 1.2 * max(1.0, float(np.max(np.abs(inst.b))))
    C = inst.C.real

    def cost_fn(U: np.ndarray) -> np.ndarray:
        U = np.atleast_2d(U)
        return (C[0, 0] * U[:, 0] + 2 * C[0, 1] * U[:, 1] + C[1, 1] * U[:, 2])

    def ineq_fn(U: np.ndarray) -> np.ndarray:
        U = np.atleast_2d(U)
        return np.stack([-U[:, 0], -U[:, 2],
                         U[:, 1] ** 2 - U[:, 0] * U[:, 2]], axis=1)

    def eq_fn(U: np.ndarray) -> np.ndarray:
        U = np.atleast_2d(U)
        rows = [np.stack([Ai[0, 0].real * U[:, 0] + 2 * Ai[0, 1].real * U[:, 1]
                          + Ai[1, 1].real * U[:, 2] - bi
                          for Ai, bi in zip(inst.A, inst.b)], axis=1)]
        rows.append((U[:, 0] * U[:, 2] - U[:, 1] ** 2)[:, None])
        return np.concatenate(rows, axis=1)

    anchor = None
    vals, vecs = np.linalg.eigh(inst.A[0].real)
    for idx in np.argsort(vals)[::-1]:
        if vals[idx] > 1e-9 and len(inst.A) == 1:
            w = vecs[:, idx]
            X = (inst.b[0] / vals[idx]) * np.outer(w, w)
            if np.min(np.diag(X)) >= 0:
                anchor = np.array([X[0, 0], X[0, 1], X[1, 1]])
                break

    return GridProblem(
        dim=3, lower=np.full(3, -B), upper=np.full(3, B), cost=cost_fn,
        inequalities=ineq_fn, equalities=eq_fn, eq_scale=4.0 * B,
        anchor=anchor)
