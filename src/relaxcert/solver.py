"""Desk-scale conic solver producing relaxation optima with first-order
optimality certificates.

The engine is operator splitting on the homogeneous self-dual embedding of

    minimize c'x   subject to   Ax + s = b,   s in K,

where K stacks a zero cone, a nonnegative orthant, rotated second-order
cones ``{(a, b, u): 2ab >= |u|^2, a, b >= 0}`` and PSD cones in a scaled
Hermitian vectorization.  Each iteration is one cached LU solve plus cone
projections, with over-relaxation and Ruiz equilibration.  Infeasibility
and unboundedness are reported through the embedding's certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.linalg

from relaxcert.core import PreconditionError
from relaxcert.distflow import (
    OperatingPoint,
    OpfCost,
    RadialNetwork,
    tree_check,
)
from relaxcert.lrsdp import LrsdpInstance, PsdPoint

DEFAULT_OPTIONS: dict[str, Any] = {
    "tol": 1e-9,               # stopping target for max(primal, dual, gap)
    "accept_tol": 1e-8,        # residual level still reported as optimal
    "max_iter": 200_000,
    "relaxation_parameter": 1.6,
}


# --- cone geometry -----------------------------------------------------------

@dataclass(frozen=True)
class ConeSpec:
    """Row layout of the cone product: zero, nonneg, rotated SOC, PSD."""

    n_zero: int = 0
    n_nonneg: int = 0
    rsoc_dims: tuple[int, ...] = ()
    psd_sides: tuple[int, ...] = ()

    @property
    def total(self) -> int:
        return (self.n_zero + self.n_nonneg + sum(self.rsoc_dims)
                + sum(s * s for s in self.psd_sides))

    def row_groups(self) -> list[tuple[int, int]]:
        """Row ranges that must share one equilibration scalar."""
        groups = [(i, i + 1) for i in range(self.n_zero + self.n_nonneg)]
        at = self.n_zero + self.n_nonneg
        for d in self.rsoc_dims:
            groups.append((at, at + d))
            at += d
        for s in self.psd_sides:
            groups.append((at, at + s * s))
            at += s * s
        return groups


def hermitian_to_rvec(M: np.ndarray) -> np.ndarray:
    """Inner-product preserving real coordinates of a Hermitian matrix:
    diagonal, then sqrt(2) * (Re, Im) of the upper triangle."""
    n = M.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    return np.concatenate([
        np.diag(M).real,
        np.sqrt(2.0) * M[iu, ju].real,
        np.sqrt(2.0) * M[iu, ju].imag,
    ])


def rvec_to_hermitian(vec: np.ndarray, n: int) -> np.ndarray:
    iu, ju = np.triu_indices(n, k=1)
    off = len(iu)
    M = np.zeros((n, n), dtype=complex)
    M[np.diag_indices(n)] = vec[:n]
    upper = (vec[n:n + off] + 1j * vec[n + off:n + 2 * off]) / np.sqrt(2.0)
    M[iu, ju] = upper
    M[ju, iu] = np.conj(upper)
    return M


def _project_soc(block: np.ndarray) -> np.ndarray:
    t, z = block[0], block[1:]
    zn = float(np.linalg.norm(z))
    if zn <= t:
        return block
    if zn <= -t:
        return np.zeros_like(block)
    coef = 0.5 * (1.0 + t / zn)
    out = np.empty_like(block)
    out[0] = coef * zn
    out[1:] = coef * z
    return out


_SQRT_HALF = np.sqrt(0.5)


def _project_rsoc(block: np.ndarray) -> np.ndarray:
    # orthogonal change of basis to the standard cone and back
    rot = block.copy()
    a, b = block[0], block[1]
    rot[0] = _SQRT_HALF * (a + b)
    rot[1] = _SQRT_HALF * (a - b)
    proj = _project_soc(rot)
    out = proj.copy()
    out[0] = _SQRT_HALF * (proj[0] + proj[1])
    out[1] = _SQRT_HALF * (proj[0] - proj[1])
    return out


def _project_psd(block: np.ndarray, side: int) -> np.ndarray:
    M = rvec_to_hermitian(block, side)
    vals, vecs = np.linalg.eigh(M)
    if vals[0] >= 0:
        return block
    pos = np.maximum(vals, 0.0)
    return hermitian_to_rvec((vecs * pos) @ vecs.conj().T)


def _project_dual_cone(y: np.ndarray, cones: ConeSpec) -> np.ndarray:
    """Project onto K*: the zero cone dualizes to free, the rest are
    self-dual."""
    out = y.copy()
    at = cones.n_zero
    end = at + cones.n_nonneg
    out[at:end] = np.maximum(out[at:end], 0.0)
    at = end
    for d in cones.rsoc_dims:
        out[at:at + d] = _project_rsoc(out[at:at + d])
        at += d
    for s in cones.psd_sides:
        out[at:at + s * s] = _project_psd(out[at:at + s * s], s)
        at += s * s
    return out


def _project_primal_cone(s: np.ndarray, cones: ConeSpec) -> np.ndarray:
    out = _project_dual_cone(s, cones)
    out[:cones.n_zero] = 0.0
    return out


# --- conic program and HSDE loop --------------------------------------------

@dataclass(frozen=True)
class ConicProgram:
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    cones: ConeSpec

    def __post_init__(self) -> None:
        m, n = self.A.shape
        if self.cones.total != m:
            raise ValueError(f"cone rows {self.cones.total} != matrix rows {m}")
        if len(self.b) != m or len(self.c) != n:
            raise ValueError("b or c length mismatch")


@dataclass(frozen=True)
class RawSolution:
    x: np.ndarray | None
    y: np.ndarray | None
    s: np.ndarray | None
    status: str
    iterations: int
    primal_residual: float
    dual_residual: float
    primal_obj: float
    dual_obj: float
    note: str = ""


def _equilibrate(prog: ConicProgram, iters: int = 15):
    """Ruiz scaling with uniform scalars inside each cone block."""
    A = prog.A.copy()
    m, n = A.shape
    d = np.ones(m)
    e = np.ones(n)
    groups = prog.cones.row_groups()
    for _ in range(iters):
        absA = np.abs(A)
        row = np.zeros(m)
        for lo, hi in groups:
            row[lo:hi] = absA[lo:hi].max(initial=0.0)
        col = absA.max(axis=0, initial=0.0)
        row[row == 0] = 1.0
        col[col == 0] = 1.0
        rs = 1.0 / np.sqrt(row)
        cs = 1.0 / np.sqrt(col)
        A = rs[:, None] * A * cs[None, :]
        d *= rs
        e *= cs
    return A, d, e


def solve_conic(prog: ConicProgram, options: dict[str, Any] | None = None) -> RawSolution:
    """Run the splitting loop; returns unscaled primal/dual iterates."""
    opts = dict(DEFAULT_OPTIONS)
    if options:
        opts.update(options)
    tol = float(opts["tol"])
    max_iter = int(opts["max_iter"])
    alpha = float(opts["relaxation_parameter"])

    m, n = prog.A.shape
    A_s, d, e = _equilibrate(prog)
    b_s = d * prog.b
    c_s = e * prog.c
    c_norm = 1.0 + np.linalg.norm(prog.c)
    inv_d = 1.0 / d
    inv_e = 1.0 / e

    N = n + m + 1
    Q = np.zeros((N, N))
    Q[:n, n:n + m] = A_s.T
    Q[:n, -1] = c_s
    Q[n:n + m, :n] = -A_s
    Q[n:n + m, -1] = b_s
    Q[-1, :n] = -c_s
    Q[-1, n:n + m] = -b_s
    lu = scipy.linalg.lu_factor(np.eye(N) + Q)

    u = np.zeros(N)
    u[-1] = 1.0
    v = np.zeros(N)
    v[-1] = 1.0

    def project_u(w: np.ndarray) -> np.ndarray:
        out = w.copy()
        out[n:n + m] = _project_dual_cone(w[n:n + m], prog.cones)
        out[-1] = max(w[-1], 0.0)
        return out

    best = None
    status = "max_iter"
    it = 0
    check_every = 25
    cert_tol = 1e-6
    u_mark = u.copy()
    for it in range(1, max_iter + 1):
        u_tilde = scipy.linalg.lu_solve(lu, u + v)
        u_rel = alpha * u_tilde + (1.0 - alpha) * u
        u_new = project_u(u_rel - v)
        v = v - u_rel + u_new
        u = u_new

        if it % check_every and it != max_iter:
            continue

        tau = u[-1]
        u_norm = np.linalg.norm(u[:n + m])
        if tau > 1e-8 * max(1.0, u_norm):
            x = e * (u[:n] / tau)
            y = d * (u[n:n + m] / tau)
            s = inv_d * (v[n:n + m] / tau)
            # absolute 2-norm: it bounds every row, as the absolute
            # membership checks need, and the drift of linear functionals of
            # s such as the trace of an SDP point read from its cone block
            pres = float(np.linalg.norm(prog.A @ x + s - prog.b))
            dres = np.linalg.norm(prog.A.T @ y + prog.c) / c_norm
            pobj = float(prog.c @ x)
            dobj = float(-prog.b @ y)
            gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            worst = max(pres, dres, gap)
            if best is None or worst < best[0]:
                best = (worst, x, y, s, pres, dres, pobj, dobj, it)
            if worst <= tol:
                status = "optimal"
                break

        # certificates live in the displacement of the homogeneous iterate;
        # only trust them once tau has collapsed relative to the iterate
        du = u - u_mark
        u_mark = u.copy()
        if tau <= 1e-3 * max(1.0, u_norm):
            dy = d * du[n:n + m]
            by = float(prog.b @ dy)
            if by < -1e-12:
                if np.linalg.norm(prog.A.T @ dy) <= cert_tol * (-by):
                    return RawSolution(
                        x=None, y=dy / (-by), s=None, status="infeasible",
                        iterations=it, primal_residual=np.inf,
                        dual_residual=np.inf, primal_obj=np.nan,
                        dual_obj=np.nan)
            dx = e * du[:n]
            cx = float(prog.c @ dx)
            if cx < -1e-12:
                s_cand = _project_primal_cone(-prog.A @ dx, prog.cones)
                if np.linalg.norm(prog.A @ dx + s_cand) <= cert_tol * (-cx):
                    return RawSolution(
                        x=dx / (-cx), y=None, s=None, status="unbounded",
                        iterations=it, primal_residual=np.inf,
                        dual_residual=np.inf, primal_obj=np.nan,
                        dual_obj=np.nan)

    ray_note = ""
    if u[-1] <= 1e-6 * max(1.0, np.linalg.norm(u[:n + m])):
        ray_note = ("homogeneous ray dominates the iterate; the instance is "
                    "likely infeasible or unbounded")

    if best is None:
        return RawSolution(x=None, y=None, s=None, status="max_iter",
                           iterations=it, primal_residual=np.inf,
                           dual_residual=np.inf, primal_obj=np.nan,
                           dual_obj=np.nan, note=ray_note)

    worst, x, y, s, pres, dres, pobj, dobj, _ = best
    if status != "optimal":
        status = "optimal" if worst <= float(opts["accept_tol"]) else "max_iter"
    return RawSolution(x=x, y=y, s=s, status=status, iterations=it,
                       primal_residual=pres, dual_residual=dres,
                       primal_obj=pobj, dual_obj=dobj,
                       note=ray_note if status != "optimal" else "")


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome: the recovered point plus optimality diagnostics."""

    point: Any
    objective: float
    primal_obj: float
    dual_obj: float
    primal_residual: float
    dual_residual: float
    gap: float
    status: str
    iterations: int
    options: dict[str, Any] = field(default_factory=dict)
    note: str = ""

    @property
    def optimality_residual(self) -> float:
        rel_gap = self.gap / (1.0 + abs(self.primal_obj) + abs(self.dual_obj))
        return max(self.primal_residual, self.dual_residual, rel_gap)


# --- OPF front-end -----------------------------------------------------------

def _empty_box(net: RadialNetwork) -> str:
    """Presolve: name the first trivially empty variable box, or ``""``."""
    for b, lo, hi in zip(net.buses, net.s_min, net.s_max):
        if b.v_min > b.v_max:
            return f"bus {b.id}: v_min {b.v_min:.6g} > v_max {b.v_max:.6g}"
        if lo.real > hi.real or lo.imag > hi.imag:
            return f"bus {b.id}: s_min > s_max"
    for ln in net.lines:
        if ln.l_max < 0:
            return f"line {ln.tail}->{ln.head}: l_max {ln.l_max:.6g} < 0"
    return ""


class _VarMap:
    """Column offsets of the OPF decision variables."""

    def __init__(self, net: RadialNetwork, cost: OpfCost):
        n, e = net.n_bus, net.n_line
        self.sp = 0           # Re s
        self.sq = n           # Im s
        self.v = 2 * n
        self.ell = 3 * n
        self.Sp = 3 * n + e   # Re S
        self.Sq = 3 * n + 2 * e
        self.quad_bus = [j for j in range(n)
                         if cost.qp[j] > 0 or cost.qq[j] > 0]
        self.t = 3 * n + 3 * e
        self.total = self.t + len(self.quad_bus)


def build_opf_program(net: RadialNetwork, cost: OpfCost) -> tuple[ConicProgram, _VarMap]:
    n, e = net.n_bus, net.n_line
    vm = _VarMap(net, cost)
    rows_A: list[np.ndarray] = []
    rows_b: list[float] = []

    def new_row() -> np.ndarray:
        return np.zeros(vm.total)

    # zero cone: voltage drop per line, then complex balance per bus
    for k in range(e):
        t_i, h_i = int(net.tail_idx[k]), int(net.head_idx[k])
        z = net.z[k]
        row = new_row()
        row[vm.v + t_i] = 1.0
        row[vm.v + h_i] = -1.0
        row[vm.Sp + k] = -2.0 * z.real
        row[vm.Sq + k] = -2.0 * z.imag
        row[vm.ell + k] = abs(z) ** 2
        rows_A.append(row)
        rows_b.append(0.0)
    for j in range(n):
        row_p, row_q = new_row(), new_row()
        row_p[vm.sp + j] = 1.0
        row_q[vm.sq + j] = 1.0
        for k in range(e):
            z = net.z[k]
            if int(net.tail_idx[k]) == j:
                row_p[vm.Sp + k] -= 1.0
                row_q[vm.Sq + k] -= 1.0
            if int(net.head_idx[k]) == j:
                row_p[vm.Sp + k] += 1.0
                row_q[vm.Sq + k] += 1.0
                row_p[vm.ell + k] -= z.real
                row_q[vm.ell + k] -= z.imag
        rows_A.extend([row_p, row_q])
        rows_b.extend([0.0, 0.0])
    n_zero = len(rows_A)

    # nonneg: boxes (s = b - Ax >= 0)
    def upper(col: int, bound: float) -> None:
        row = new_row()
        row[col] = 1.0
        rows_A.append(row)
        rows_b.append(bound)

    def lower(col: int, bound: float) -> None:
        row = new_row()
        row[col] = -1.0
        rows_A.append(row)
        rows_b.append(-bound)

    s_min = net.s_min
    s_max = net.s_max
    for j in range(n):
        upper(vm.v + j, net.v_max[j])
        lower(vm.v + j, net.v_min[j])
        upper(vm.sp + j, s_max[j].real)
        upper(vm.sq + j, s_max[j].imag)
        # an unbounded injection is a free column; a large finite bound in
        # its place would enter b and wreck the conditioning
        if np.isfinite(s_min[j].real):
            lower(vm.sp + j, s_min[j].real)
        if np.isfinite(s_min[j].imag):
            lower(vm.sq + j, s_min[j].imag)
    for k in range(e):
        upper(vm.ell + k, net.l_max[k])
    n_nonneg = len(rows_A) - n_zero

    # rotated cones: |S|^2 <= v_tail * ell as (v, ell, sqrt2*ReS, sqrt2*ImS)
    rsoc_dims: list[int] = []
    for k in range(e):
        t_i = int(net.tail_idx[k])
        for col, coef in ((vm.v + t_i, 1.0), (vm.ell + k, 1.0),
                          (vm.Sp + k, np.sqrt(2.0)), (vm.Sq + k, np.sqrt(2.0))):
            row = new_row()
            row[col] = -coef
            rows_A.append(row)
            rows_b.append(0.0)
        rsoc_dims.append(4)

    # quadratic cost epigraphs: 2 * t_j * (1/2) >= qp Re^2 + qq Im^2
    for idx, j in enumerate(vm.quad_bus):
        row = new_row()
        row[vm.t + idx] = -1.0
        rows_A.append(row)
        rows_b.append(0.0)
        rows_A.append(new_row())
        rows_b.append(0.5)
        dim = 2
        if cost.qp[j] > 0:
            row = new_row()
            row[vm.sp + j] = -np.sqrt(2.0 * cost.qp[j])
            rows_A.append(row)
            rows_b.append(0.0)
            dim += 1
        if cost.qq[j] > 0:
            row = new_row()
            row[vm.sq + j] = -np.sqrt(2.0 * cost.qq[j])
            rows_A.append(row)
            rows_b.append(0.0)
            dim += 1
        rsoc_dims.append(dim)

    c = np.zeros(vm.total)
    c[vm.sp:vm.sp + n] = cost.cp
    c[vm.sq:vm.sq + n] = cost.cq
    c[vm.t:] = 1.0

    prog = ConicProgram(
        A=np.vstack(rows_A), b=np.array(rows_b), c=c,
        cones=ConeSpec(n_zero=n_zero, n_nonneg=n_nonneg,
                       rsoc_dims=tuple(rsoc_dims)))
    return prog, vm


def solve_opf_relaxation(net: RadialNetwork, cost: OpfCost,
                         options: dict[str, Any] | None = None) -> SolveResult:
    """Solve the second-order-cone relaxation of the OPF instance."""
    ok, problem = tree_check(net)
    if not ok:
        raise PreconditionError(f"network is not radial: {problem}")
    if len(cost.cp) != net.n_bus:
        raise PreconditionError("cost dimension does not match the network")

    opts = dict(DEFAULT_OPTIONS)
    if options:
        opts.update(options)
    empty = _empty_box(net)
    if empty:
        return SolveResult(point=None, objective=np.nan, primal_obj=np.nan,
                           dual_obj=np.nan, primal_residual=np.inf,
                           dual_residual=np.inf, gap=np.nan,
                           status="infeasible", iterations=0, options=opts,
                           note=empty)

    prog, vm = build_opf_program(net, cost)
    raw = solve_conic(prog, opts)

    if raw.status in ("infeasible", "unbounded", "max_iter") and raw.x is None:
        return SolveResult(point=None, objective=np.nan, primal_obj=np.nan,
                           dual_obj=np.nan, primal_residual=raw.primal_residual,
                           dual_residual=raw.dual_residual, gap=np.nan,
                           status=raw.status, iterations=raw.iterations,
                           options=opts, note=raw.note)

    n, e = net.n_bus, net.n_line
    x = raw.x
    s = x[vm.sp:vm.sp + n] + 1j * x[vm.sq:vm.sq + n]
    v = np.maximum(x[vm.v:vm.v + n], 0.0)
    ell = np.maximum(x[vm.ell:vm.ell + e], 0.0)
    S = x[vm.Sp:vm.Sp + e] + 1j * x[vm.Sq:vm.Sq + e]
    point = OperatingPoint(s=s, v=v, ell=ell, S=S)
    return SolveResult(
        point=point, objective=cost.value(s),
        primal_obj=raw.primal_obj, dual_obj=raw.dual_obj,
        primal_residual=raw.primal_residual, dual_residual=raw.dual_residual,
        gap=abs(raw.primal_obj - raw.dual_obj), status=raw.status,
        iterations=raw.iterations, options=opts, note=raw.note)


# --- LRSDP front-end ---------------------------------------------------------

def build_lrsdp_program(inst: LrsdpInstance) -> ConicProgram:
    n = inst.n
    dim = n * n
    rows_A = [hermitian_to_rvec(Ai) for Ai in inst.A]
    rows_b = list(inst.b)
    A_psd = -np.eye(dim)
    A = np.vstack([np.vstack(rows_A), A_psd])
    b = np.concatenate([np.array(rows_b), np.zeros(dim)])
    c = hermitian_to_rvec(inst.C)
    return ConicProgram(A=A, b=b, c=c,
                        cones=ConeSpec(n_zero=inst.m, psd_sides=(n,)))


def solve_lrsdp_relaxation(inst: LrsdpInstance,
                           options: dict[str, Any] | None = None) -> SolveResult:
    """Solve the SDP relaxation (rank constraint dropped)."""
    prog = build_lrsdp_program(inst)
    raw = solve_conic(prog, options)
    opts = dict(DEFAULT_OPTIONS)
    if options:
        opts.update(options)

    if raw.x is None:
        return SolveResult(point=None, objective=np.nan, primal_obj=np.nan,
                           dual_obj=np.nan, primal_residual=raw.primal_residual,
                           dual_residual=raw.dual_residual, gap=np.nan,
                           status=raw.status, iterations=raw.iterations,
                           options=opts, note=raw.note)

    # the cone block of s is exactly PSD; it matches x up to the residual
    X = rvec_to_hermitian(raw.s[inst.m:], inst.n)
    point = PsdPoint.from_matrix(X, name="relaxation optimum")
    return SolveResult(
        point=point, objective=inst.cost(point.X),
        primal_obj=raw.primal_obj, dual_obj=raw.dual_obj,
        primal_residual=raw.primal_residual, dual_residual=raw.dual_residual,
        gap=abs(raw.primal_obj - raw.dual_obj), status=raw.status,
        iterations=raw.iterations, options=opts, note=raw.note)
