"""Sparse conic solver producing relaxation optima with first-order
optimality certificates.

The engine is operator splitting on the homogeneous self-dual embedding of

    minimize c'x   subject to   Ax + s = b,   s in K,

where K stacks a zero cone, a nonnegative orthant, rotated second-order
cones ``{(a, b, u): 2ab >= |u|^2, a, b >= 0}`` and PSD cones in a scaled
Hermitian vectorization.  ``A`` is a sparse matrix throughout.  The linear
step of every iteration reuses one sparse factorization of ``I + A'A``, the
Schur complement of the embedding's KKT matrix, and the cone projections
treat all rotated cones of one dimension in a single call; over-relaxation
and Ruiz equilibration complete the method.  Infeasibility and unboundedness
are reported through the embedding's certificates.

Every exit of :func:`solve_conic` builds one :class:`SolveResult` with status
``optimal``, ``infeasible``, ``unbounded`` or ``max_iter``.  A certificate
carries no iterate; ``max_iter`` carries the best checked iterate if the loop
checked one.  A value the run did not produce is ``None``, never NaN or
``inf``.  The OPF and LRSDP front-ends return a result without an iterate as
it is and otherwise only map its iterate to a point and an objective, so a
point exists exactly when an iterate does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Any

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from relaxcert.core import PreconditionError
from relaxcert.distflow import OperatingPoint, OpfCost, RadialNetwork, empty_box
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

    @cached_property
    def total(self) -> int:
        return (self.n_zero + self.n_nonneg + sum(self.rsoc_dims)
                + sum(s * s for s in self.psd_sides))

    @cached_property
    def group_starts(self) -> np.ndarray:
        """First row of each block that shares one equilibration scalar:
        every zero and nonneg row alone, then each cone."""
        sizes = ([1] * (self.n_zero + self.n_nonneg) + list(self.rsoc_dims)
                 + [s * s for s in self.psd_sides])
        return np.cumsum([0] + sizes[:-1])

    @cached_property
    def rsoc_rows(self) -> tuple[np.ndarray, ...]:
        """Rows of the rotated cones, one ``(count, dim)`` matrix per cone
        dimension."""
        starts: dict[int, list[int]] = {}
        at = self.n_zero + self.n_nonneg
        for d in self.rsoc_dims:
            starts.setdefault(d, []).append(at)
            at += d
        return tuple(np.add.outer(np.array(s), np.arange(d))
                     for d, s in starts.items())


@lru_cache(maxsize=64)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    iu, ju = np.triu_indices(n, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def hermitian_to_rvec(M: np.ndarray) -> np.ndarray:
    """Inner-product preserving real coordinates of a Hermitian matrix:
    diagonal, then sqrt(2) * (Re, Im) of the upper triangle."""
    iu, ju = _triu(M.shape[0])
    upper = M[iu, ju]
    return np.concatenate([
        np.diag(M).real,
        np.sqrt(2.0) * upper.real,
        np.sqrt(2.0) * upper.imag,
    ])


def rvec_to_hermitian(vec: np.ndarray, n: int) -> np.ndarray:
    iu, ju = _triu(n)
    off = len(iu)
    M = np.zeros((n, n), dtype=complex)
    M[np.diag_indices(n)] = vec[:n]
    upper = (vec[n:n + off] + 1j * vec[n + off:n + 2 * off]) / np.sqrt(2.0)
    M[iu, ju] = upper
    M[ju, iu] = np.conj(upper)
    return M


@lru_cache(maxsize=16)
def _rsoc_basis(d: int) -> np.ndarray:
    """Symmetric orthogonal map between the rotated cone of width ``d`` and
    the standard cone ``{(t, z): t >= |z|}``; it is its own inverse."""
    R = np.eye(d)
    R[:2, :2] = np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]])
    R.setflags(write=False)
    return R


_TINY = np.finfo(float).tiny


def _project_rsoc(blocks: np.ndarray) -> np.ndarray:
    """Project each row of ``blocks`` onto the rotated cone of its width."""
    R = _rsoc_basis(blocks.shape[1])
    rot = blocks @ R
    t = rot[:, 0]
    zn = np.sqrt(np.einsum("ij,ij->i", rot[:, 1:], rot[:, 1:]))
    # t / den is 1 inside the cone, -1 in its polar and t / zn in between;
    # den > 0 also at the origin
    den = np.maximum(np.maximum(zn, np.abs(t)), _TINY)
    coef = 0.5 * (1.0 + t / den)
    top = np.maximum(coef * zn, t)
    rot *= coef[:, None]
    rot[:, 0] = top
    return rot @ R


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
    for rows in cones.rsoc_rows:
        out[rows] = _project_rsoc(y[rows])
    at = cones.total - sum(s * s for s in cones.psd_sides)
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
    A: scipy.sparse.csr_array
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
class SolveResult:
    """Outcome of one solve: ``x`` and ``s`` are the unscaled primal iterate
    and slack, which a front-end maps to ``point`` and ``objective``; a value
    the run did not produce is ``None``."""

    status: str               # optimal, infeasible, unbounded or max_iter
    iterations: int
    options: dict[str, Any]
    x: np.ndarray | None = None
    s: np.ndarray | None = None
    primal_residual: float | None = None
    dual_residual: float | None = None
    primal_obj: float | None = None
    dual_obj: float | None = None
    point: Any = None
    objective: float | None = None
    note: str = ""

    @property
    def gap(self) -> float | None:
        if self.primal_obj is None:
            return None
        return abs(self.primal_obj - self.dual_obj)

    @property
    def optimality_residual(self) -> float | None:
        if self.gap is None:
            return None
        rel_gap = self.gap / (1.0 + abs(self.primal_obj) + abs(self.dual_obj))
        return max(self.primal_residual, self.dual_residual, rel_gap)


def _equilibrate(prog: ConicProgram):
    """Fifteen passes of Ruiz scaling with uniform scalars inside each cone
    block."""
    A = prog.A.copy()
    m, n = A.shape
    row_len = np.diff(A.indptr)
    nz_rows = np.repeat(np.arange(m), row_len)
    filled = row_len > 0
    row_starts = A.indptr[:-1][filled]
    starts = prog.cones.group_starts
    sizes = np.diff(starts, append=m)
    d = np.ones(m)
    e = np.ones(n)
    for _ in range(15):
        absA = np.abs(A.data)
        row = np.zeros(m)
        row[filled] = np.maximum.reduceat(absA, row_starts)
        row = np.repeat(np.maximum.reduceat(row, starts), sizes)
        col = np.zeros(n)
        np.maximum.at(col, A.indices, absA)
        row[row == 0] = 1.0
        col[col == 0] = 1.0
        rs = 1.0 / np.sqrt(row)
        cs = 1.0 / np.sqrt(col)
        A.data = rs[nz_rows] * A.data * cs[A.indices]
        d *= rs
        e *= cs
    return A, d, e


def _kkt_solver(A: scipy.sparse.csr_array, c: np.ndarray, b: np.ndarray):
    """Solver of ``(I + Q) (z, tau) = (r_z, r_tau)`` for the embedding's skew
    matrix ``Q = [[0, A', c], [-A, 0, b], [-c', -b', 0]]``, ``z = (x, y)``.

    With ``M = [[I, A'], [-A, I]]`` and ``h = (c, b)``, ``I + Q`` is
    ``[[M, h], [-h', 1]]``.  ``M p = r_z`` reduces to the Schur complement
    ``I + A'A``, factored once; then ``tau = (r_tau + h'p) / (1 + h'g)`` and
    ``z = p - g tau`` with ``g = M^-1 h`` computed up front (the reduction of
    O'Donoghue, Chu, Parikh and Boyd's SCS).
    """
    n = A.shape[1]
    AT = A.T.tocsr()
    schur = scipy.sparse.linalg.splu((scipy.sparse.eye_array(n) + AT @ A).tocsc())

    def solve_M(r: np.ndarray) -> np.ndarray:
        px = schur.solve(r[:n] - AT @ r[n:])
        return np.concatenate([px, r[n:] + A @ px])

    h = np.concatenate([c, b])
    g = solve_M(h)
    h_g = 1.0 + h @ g

    def solve(r_z: np.ndarray, r_tau: float) -> tuple[np.ndarray, float]:
        p = solve_M(r_z)
        tau = (r_tau + h @ p) / h_g
        return p - g * tau, tau

    return solve


def solve_conic(prog: ConicProgram, options: dict[str, Any] | None = None) -> SolveResult:
    """Run the splitting loop on ``options`` over :data:`DEFAULT_OPTIONS`;
    the result records the merged options."""
    opts = {**DEFAULT_OPTIONS, **(options or {})}
    tol = float(opts["tol"])
    max_iter = int(opts["max_iter"])
    alpha = float(opts["relaxation_parameter"])

    m, n = prog.A.shape
    A_s, d, e = _equilibrate(prog)
    b_s = d * prog.b
    c_s = e * prog.c
    c_norm = 1.0 + np.linalg.norm(prog.c)
    inv_d = 1.0 / d

    kkt = _kkt_solver(A_s, c_s, b_s)

    # u = (uz, ut) and v = (vz, vt): the tau and kappa entries stay scalars
    uz = np.zeros(n + m)
    vz = np.zeros(n + m)
    ut = vt = 1.0

    best = None
    status = "max_iter"
    it = 0
    check_every = 25
    cert_tol = 1e-6
    u_mark = uz.copy()
    for it in range(1, max_iter + 1):
        z_t, tau_t = kkt(uz + vz, ut + vt)
        rel_z = alpha * z_t + (1.0 - alpha) * uz
        rel_t = alpha * tau_t + (1.0 - alpha) * ut
        new_z = rel_z - vz
        new_z[n:] = _project_dual_cone(new_z[n:], prog.cones)
        new_t = max(rel_t - vt, 0.0)
        vz = vz - rel_z + new_z
        vt = vt - rel_t + new_t
        uz, ut = new_z, new_t

        if it % check_every and it != max_iter:
            continue

        tau = ut
        u_norm = np.linalg.norm(uz)
        if tau > 1e-8 * max(1.0, u_norm):
            x = e * (uz[:n] / tau)
            y = d * (uz[n:] / tau)
            s = inv_d * (vz[n:] / tau)
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
                best = (worst, x, s, pres, dres, pobj, dobj)
            if worst <= tol:
                status = "optimal"
                break

        # certificates live in the displacement of the homogeneous iterate;
        # only trust them once tau has collapsed relative to the iterate
        du = uz - u_mark
        u_mark = uz.copy()
        if tau <= 1e-3 * max(1.0, u_norm):
            dy = d * du[n:]
            by = float(prog.b @ dy)
            if by < -1e-12:
                if np.linalg.norm(prog.A.T @ dy) <= cert_tol * (-by):
                    return SolveResult("infeasible", it, opts)
            dx = e * du[:n]
            cx = float(prog.c @ dx)
            if cx < -1e-12:
                s_cand = _project_primal_cone(-prog.A @ dx, prog.cones)
                if np.linalg.norm(prog.A @ dx + s_cand) <= cert_tol * (-cx):
                    return SolveResult("unbounded", it, opts)

    ray_note = ""
    if ut <= 1e-6 * max(1.0, np.linalg.norm(uz)):
        ray_note = ("homogeneous ray dominates the iterate; the instance is "
                    "likely infeasible or unbounded")

    if best is None:
        return SolveResult("max_iter", it, opts, note=ray_note)

    worst, x, s, pres, dres, pobj, dobj = best
    if status != "optimal":
        status = "optimal" if worst <= float(opts["accept_tol"]) else "max_iter"
    return SolveResult(status, it, opts, x=x, s=s, primal_residual=pres,
                       dual_residual=dres, primal_obj=pobj, dual_obj=dobj,
                       note=ray_note if status != "optimal" else "")


# --- OPF front-end -----------------------------------------------------------

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
    tail, head = net.tail_idx, net.head_idx
    lines, buses = np.arange(e), np.arange(n)
    z = net.z
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    rhs: list[np.ndarray] = []
    m = 0

    def block(n_rows: int, entries, b=0.0) -> None:
        """Append ``n_rows`` rows with right-hand side ``b``; ``entries`` are
        ``(row, col, value)`` triplets, rows counted from the block's first."""
        nonlocal m
        for r, c, v in entries:
            r, c, v = np.broadcast_arrays(r, c, v)
            rows.append(m + r.ravel())
            cols.append(c.ravel())
            vals.append(v.ravel())
        rhs.append(np.broadcast_to(np.asarray(b, dtype=float), n_rows))
        m += n_rows

    # zero cone: voltage drop per line, then complex balance per bus (rows
    # 2j and 2j + 1), read off the tree incidence
    block(e, [(lines, vm.v + tail, 1.0), (lines, vm.v + head, -1.0),
              (lines, vm.Sp + lines, -2.0 * z.real),
              (lines, vm.Sq + lines, -2.0 * z.imag),
              (lines, vm.ell + lines, np.abs(z) ** 2)])
    block(2 * n, [(2 * buses, vm.sp + buses, 1.0),
                  (2 * buses + 1, vm.sq + buses, 1.0),
                  (2 * tail, vm.Sp + lines, -1.0),
                  (2 * tail + 1, vm.Sq + lines, -1.0),
                  (2 * head, vm.Sp + lines, 1.0),
                  (2 * head + 1, vm.Sq + lines, 1.0),
                  (2 * head, vm.ell + lines, -z.real),
                  (2 * head + 1, vm.ell + lines, -z.imag)])
    n_zero = e + 2 * n

    # nonneg: boxes (s = b - Ax >= 0), per bus: v upper and lower, Re and Im
    # s upper, then Re and Im s lower where finite.  An unbounded injection
    # is a free column; a large finite bound in its place would enter b and
    # wreck the conditioning.
    s_min, s_max = net.s_min, net.s_max
    box_col = np.stack([vm.v + buses, vm.v + buses, vm.sp + buses,
                        vm.sq + buses, vm.sp + buses, vm.sq + buses], axis=1)
    box_sign = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    box_b = np.stack([net.v_max, -net.v_min,
                      s_max.real, s_max.imag, -s_min.real, -s_min.imag],
                     axis=1)
    keep = np.isfinite(box_b)
    keep[:, :4] = True
    n_box = int(keep.sum())
    block(n_box, [(np.arange(n_box), box_col[keep],
                   np.broadcast_to(box_sign, keep.shape)[keep])], box_b[keep])
    block(e, [(lines, vm.ell + lines, 1.0)], net.l_max)
    n_nonneg = n_box + e

    # rotated cones: |S|^2 <= v_tail * ell as (v, ell, sqrt2*ReS, sqrt2*ImS)
    block(4 * e, [(4 * lines, vm.v + tail, -1.0),
                  (4 * lines + 1, vm.ell + lines, -1.0),
                  (4 * lines + 2, vm.Sp + lines, -np.sqrt(2.0)),
                  (4 * lines + 3, vm.Sq + lines, -np.sqrt(2.0))])
    rsoc_dims = [4] * e

    # quadratic cost epigraphs: 2 * t_j * (1/2) >= qp Re^2 + qq Im^2
    for idx, j in enumerate(vm.quad_bus):
        entries = [(0, vm.t + idx, -1.0)]
        dim = 2
        for col, q in ((vm.sp + j, cost.qp[j]), (vm.sq + j, cost.qq[j])):
            if q > 0:
                entries.append((dim, col, -np.sqrt(2.0 * q)))
                dim += 1
        b_cone = np.zeros(dim)
        b_cone[1] = 0.5
        block(dim, entries, b_cone)
        rsoc_dims.append(dim)

    c = np.zeros(vm.total)
    c[vm.sp:vm.sp + n] = cost.cp
    c[vm.sq:vm.sq + n] = cost.cq
    c[vm.t:] = 1.0

    A = scipy.sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, vm.total)).tocsr()
    A.eliminate_zeros()
    prog = ConicProgram(
        A=A, b=np.concatenate(rhs), c=c,
        cones=ConeSpec(n_zero=n_zero, n_nonneg=n_nonneg,
                       rsoc_dims=tuple(rsoc_dims)))
    return prog, vm


def solve_opf_relaxation(net: RadialNetwork, cost: OpfCost,
                         options: dict[str, Any] | None = None) -> SolveResult:
    """Solve the second-order-cone relaxation of the OPF instance."""
    net.line_table  # raises PreconditionError unless the lines form a tree
    if len(cost.cp) != net.n_bus:
        raise PreconditionError("cost dimension does not match the network")

    empty = empty_box(net)
    if empty:
        return SolveResult("infeasible", 0, {**DEFAULT_OPTIONS, **(options or {})},
                           note=empty)

    prog, vm = build_opf_program(net, cost)
    res = solve_conic(prog, options)
    if res.x is None:
        return res

    n, e = net.n_bus, net.n_line
    x = res.x
    s = x[vm.sp:vm.sp + n] + 1j * x[vm.sq:vm.sq + n]
    v = np.maximum(x[vm.v:vm.v + n], 0.0)
    ell = np.maximum(x[vm.ell:vm.ell + e], 0.0)
    S = x[vm.Sp:vm.Sp + e] + 1j * x[vm.Sq:vm.Sq + e]
    point = OperatingPoint(s=s, v=v, ell=ell, S=S)
    return replace(res, point=point, objective=cost.value(s))


# --- LRSDP front-end ---------------------------------------------------------

def build_lrsdp_program(inst: LrsdpInstance) -> ConicProgram:
    n = inst.n
    dim = n * n
    rows_A = np.vstack([hermitian_to_rvec(Ai) for Ai in inst.A])
    A = scipy.sparse.vstack([scipy.sparse.csr_array(rows_A),
                             -scipy.sparse.eye_array(dim)], format="csr")
    b = np.concatenate([np.asarray(inst.b, dtype=float), np.zeros(dim)])
    c = hermitian_to_rvec(inst.C)
    return ConicProgram(A=A, b=b, c=c,
                        cones=ConeSpec(n_zero=inst.m, psd_sides=(n,)))


def solve_lrsdp_relaxation(inst: LrsdpInstance,
                           options: dict[str, Any] | None = None) -> SolveResult:
    """Solve the SDP relaxation (rank constraint dropped)."""
    res = solve_conic(build_lrsdp_program(inst), options)
    if res.x is None:
        return res

    # the cone block of s is exactly PSD; it matches x up to the residual
    X = rvec_to_hermitian(res.s[inst.m:], inst.n)
    point = PsdPoint.from_matrix(X, name="relaxation optimum")
    return replace(res, point=point, objective=inst.cost(point.X))
