"""Rank reduction for low-rank SDP: the tail-eigenvalue Lyapunov function,
cost-and-constraint-preserving directions from a null-space system, boundary
steps that drop an eigenvalue to zero, and the stagewise path that drives a
feasible matrix down to the target rank at constant cost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
import numpy as np
import scipy.linalg

from relaxcert.core import (
    FEAS_TOL,
    MONOTONE_SLACK,
    SEGMENT_SAMPLES,
    CertificateViolationError,
    HandleValues,
    PathCheck,
    PathTrace,
    PreconditionError,
    ProblemHandle,
    complex_pair,
    finite_number,
    finite_numbers,
    write_trace_csv,
)

# An eigenvalue counts as nonzero above this times max(1, lambda_max).
RANK_TOL = 1e-8


class ReductionStuckError(RuntimeError):
    """No nonzero direction at some stage (dimension condition violated)."""

    def __init__(self, stage: int, message: str):
        super().__init__(message)
        self.stage = stage


def _check_hermitian(M: np.ndarray, name: str) -> np.ndarray:
    """Check each matrix of an (..., n, n) stack is Hermitian to relative 1e-9."""
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    gaps = np.abs(M - np.swapaxes(M, -2, -1).conj()).reshape(-1, *M.shape[-2:])
    scales = np.maximum(1.0, np.max(np.abs(M), axis=(-2, -1))).reshape(-1)
    bad = np.flatnonzero(np.max(gaps, axis=(-2, -1)) > 1e-9 * scales)
    if len(bad):
        gap = gaps[bad[0]]
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        raise ValueError(
            f"{name} is not Hermitian: entry ({i},{j}) differs from its "
            f"transpose conjugate by {gap[i, j]:.3g}")
    return M


@dataclass(frozen=True)
class LrsdpInstance:
    """Data ``(C, A_i, b_i, r)`` of a rank-constrained SDP.

    Instances violating the dimension condition that guarantees a reduction
    direction at every stage are accepted but flagged.
    """

    C: np.ndarray
    A: tuple[np.ndarray, ...]
    b: np.ndarray
    r: int

    def __init__(self, C, A, b, r):
        object.__setattr__(self, "C", _check_hermitian(C, "C"))
        object.__setattr__(self, "A", tuple(
            _check_hermitian(Ai, f"A[{i}]") for i, Ai in enumerate(A)))
        b = np.asarray(b, dtype=float)
        if b.ndim != 1 or len(b) != len(self.A):
            raise ValueError(f"b has {b.shape} entries for {len(self.A)} constraints")
        object.__setattr__(self, "b", b)
        n = self.C.shape[0]
        for i, Ai in enumerate(self.A):
            if Ai.shape[0] != n:
                raise ValueError(f"A[{i}] is {Ai.shape[0]}x{Ai.shape[0]}, C is {n}x{n}")
        if not 0 < int(r) <= n:
            raise ValueError(f"target rank {r} outside 1..{n}")
        object.__setattr__(self, "r", int(r))

    @property
    def n(self) -> int:
        return self.C.shape[0]

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def dimension_condition(self) -> bool:
        """True when (r+1)(r+2)/2 > m+1, the reduction guarantee."""
        return (self.r + 1) * (self.r + 2) // 2 > self.m + 1

    @cached_property
    def is_real(self) -> bool:
        return (np.max(np.abs(self.C.imag)) == 0.0
                and all(np.max(np.abs(Ai.imag)) == 0.0 for Ai in self.A))

    def constraint_residual(self, X: np.ndarray) -> np.ndarray:
        """Worst constraint violation of each matrix in an (..., n, n) stack."""
        return np.max([np.abs(_trace(Ai @ X).real - bi)
                       for Ai, bi in zip(self.A, self.b)], axis=0)

    def cost(self, X: np.ndarray) -> np.ndarray:
        """Cost of each matrix in an (..., n, n) stack."""
        return _trace(self.C @ X).real


def _trace(M: np.ndarray) -> np.ndarray:
    return np.trace(M, axis1=-2, axis2=-1)


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    return (M + np.swapaxes(M, -2, -1).conj()) / 2


@dataclass(frozen=True)
class PsdPoint:
    """A PSD matrix with its eigendecomposition cached (descending order)."""

    X: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_matrix(cls, X: np.ndarray, name: str = "X") -> "PsdPoint":
        X = _check_hermitian(X, name)
        vals, vecs = np.linalg.eigh(X)
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        if vals[-1] < -1e-9 * max(1.0, vals[0]):
            raise ValueError(
                f"{name} is not positive semidefinite (min eigenvalue {vals[-1]:.3g})")
        return cls(X=X, eigenvalues=vals, eigenvectors=vecs)

    def rank(self, tol: float = RANK_TOL) -> int:
        cut = tol * max(1.0, float(self.eigenvalues[0]))
        return int(np.sum(self.eigenvalues >= cut))

    def factors(self, tol: float = RANK_TOL) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal basis and positive spectrum of the numerical range."""
        k = self.rank(tol)
        return self.eigenvectors[:, :k], self.eigenvalues[:k]


def lyapunov_tail(inst: LrsdpInstance, X: PsdPoint | np.ndarray) -> np.ndarray:
    """Sum of the eigenvalues below the target rank; zero iff rank(X) <= r.

    ``X`` is a :class:`PsdPoint` or an (..., n, n) stack of Hermitian
    matrices, held to the PSD test of :meth:`PsdPoint.from_matrix`.
    """
    if isinstance(X, PsdPoint):
        vals = X.eigenvalues
    else:
        vals = _spectrum(_check_hermitian(X, "X"))
    low = vals[..., -1] < -1e-9 * np.maximum(1.0, vals[..., 0])
    if np.any(low):
        raise PreconditionError(f"X is not positive semidefinite "
                                f"(min eigenvalue {vals[..., -1][low].flat[0]:.3g})")
    return _tail(vals, inst.r)


def _spectrum(X: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of each matrix in a Hermitian (..., n, n) stack."""
    return np.linalg.eigh(X)[0][..., ::-1].copy()


def _tail(vals_desc: np.ndarray, r: int) -> np.ndarray:
    """Sum of each descending spectrum past its ``r`` largest entries, at least 0."""
    tail = np.sum(vals_desc[..., r:], axis=-1)
    return np.where(tail > 0.0, tail, 0.0)[()]


def _hermitian_basis_coefficients(G: np.ndarray, real_symmetric: bool) -> np.ndarray:
    """Row of the null-space system for one data matrix projected onto the
    current range: coefficients of tr(G Y) in the Hermitian basis of Y."""
    k = G.shape[0]
    iu, ju = np.triu_indices(k, k=1)
    if real_symmetric:
        return np.concatenate([np.diag(G).real, 2.0 * G[iu, ju].real])
    return np.concatenate([
        np.diag(G).real, 2.0 * G[iu, ju].real, 2.0 * G[iu, ju].imag])


def _vector_to_hermitian(y: np.ndarray, k: int, real_symmetric: bool) -> np.ndarray:
    iu, ju = np.triu_indices(k, k=1)
    Y = np.zeros((k, k), dtype=complex)
    Y[np.diag_indices(k)] = y[:k]
    off = len(iu)
    Y[iu, ju] = y[k:k + off]
    if not real_symmetric:
        Y[iu, ju] = Y[iu, ju] + 1j * y[k + off:k + 2 * off]
    Y[ju, iu] = np.conj(Y[iu, ju])
    return Y


def nullspace_direction(
    inst: LrsdpInstance, U: np.ndarray, Sigma: np.ndarray
) -> np.ndarray | None:
    """Nonzero Hermitian Y with tr(C U Y U^H) = tr(A_i U Y U^H) = 0, or None.

    Real instances are kept on the real-symmetric manifold (k(k+1)/2 real
    unknowns); complex ones use the full Hermitian parameterization.  None is
    returned only when the system is square-or-overdetermined and
    numerically full rank, which requires the dimension condition to fail.
    """
    U = np.asarray(U, dtype=complex)
    k = U.shape[1]
    ortho_gap = np.max(np.abs(U.conj().T @ U - np.eye(k)))
    if ortho_gap > 1e-10:
        raise PreconditionError(f"U is not orthonormal (gap {ortho_gap:.3g})")

    real_sym = inst.is_real and np.max(np.abs(U.imag)) == 0.0
    # C and each A_i projected onto the range once, for the system and the
    # residual check
    G = [U.conj().T @ D @ U for D in (inst.C, *inst.A)]
    M = np.vstack([_hermitian_basis_coefficients(Gi, real_sym) for Gi in G])
    n_unknowns = M.shape[1]

    _, svals, Vt = scipy.linalg.svd(M, full_matrices=True)
    if n_unknowns <= M.shape[0] and svals[-1] > 1e-10 * max(1.0, svals[0]):
        return None

    Y = _vector_to_hermitian(Vt[-1], k, real_sym)
    Y /= np.linalg.norm(Y)
    worst = max(abs(np.trace(Gi @ Y).real) for Gi in G)
    if worst > 1e-9:
        raise CertificateViolationError(
            f"null-space direction leaves residual {worst:.3g}")
    return Y


@dataclass(frozen=True)
class BoundarySteps:
    """Signed steps at which ``Sigma + alpha Y`` first goes singular."""

    alpha_pos: float | None
    alpha_neg: float | None


def boundary_step(Sigma: np.ndarray, Y: np.ndarray) -> BoundarySteps:
    """Smallest positive and largest negative alpha making Sigma + alpha*Y
    singular; at least one exists for nonzero Hermitian Y.  ``Sigma`` is
    the positive spectrum of the diagonal matrix, a 1-D array."""
    sig = np.asarray(Sigma, dtype=float)
    if sig.ndim != 1:
        raise PreconditionError(
            f"Sigma must be a 1-D spectrum, got shape {sig.shape}")
    if np.any(sig <= 0):
        raise PreconditionError("Sigma must be positive definite diagonal")
    Y = _check_hermitian(Y, "Y")
    if np.linalg.norm(Y) <= 1e-14:
        raise PreconditionError("Y is numerically zero")

    d = 1.0 / np.sqrt(sig)
    W = d[:, None] * Y * d[None, :]
    w = np.linalg.eigvalsh(W)
    wmax = float(w[-1])
    wmin = float(w[0])
    cut = 1e-10 * max(1.0, abs(wmax), abs(wmin))

    alpha_pos = (-1.0 / wmin) if wmin < -cut else None
    alpha_neg = (-1.0 / wmax) if wmax > cut else None
    if alpha_pos is None and alpha_neg is None:
        raise CertificateViolationError(
            "nonzero Y produced no boundary step in either direction")
    return BoundarySteps(alpha_pos=alpha_pos, alpha_neg=alpha_neg)


@dataclass(frozen=True)
class ReductionStage:
    """Bookkeeping for one stage of the reduction."""

    index: int
    constant: bool
    rank_before: int
    rank_after: int
    alpha: float = 0.0


@dataclass(frozen=True)
class ReductionResult:
    trace: PathTrace
    final: PsdPoint
    stages: tuple[ReductionStage, ...]


def _stage_matrices(Sigma: np.ndarray, Y: np.ndarray, alpha: float,
                    ts: np.ndarray) -> np.ndarray:
    """The compressed stage matrices ``diag(Sigma) + t alpha Y`` at each t."""
    return np.diag(Sigma).astype(complex) + (np.asarray(ts)[:, None, None] * alpha) * Y


def _stage_tails(inst: LrsdpInstance, Sigma: np.ndarray, Y: np.ndarray,
                 alpha: float, n: int, ts) -> np.ndarray:
    """Tail sums along a stage; each rank-k compression is padded with n-k
    zero eigenvalues."""
    ev = np.linalg.eigvalsh(_stage_matrices(Sigma, Y, alpha, ts))
    full = np.concatenate([ev, np.zeros((len(ev), n - ev.shape[-1]))], axis=-1)
    return _tail(np.sort(full, axis=-1)[:, ::-1], inst.r)


def _monotone_side(inst: LrsdpInstance, Sigma: np.ndarray, Y: np.ndarray,
                   alpha: float, n: int) -> tuple[bool, float]:
    """Decide whether the tail sum is non-increasing from 0 to alpha.

    The tail sum is concave along the stage, so it is non-increasing exactly
    when its initial slope is nonpositive: a tiny forward probe tests the
    slope, and the stage's end points give the drop, all from one
    ``eigvalsh`` call.  :func:`~relaxcert.core.verify_path` judges every
    sample of the stage.  Returns ``(qualified, end_to_end_drop)``.
    """
    v0, v_eps, v1 = _stage_tails(inst, Sigma, Y, alpha, n, [0.0, 1e-5, 1.0])
    if v_eps - v0 > MONOTONE_SLACK * (1.0 + abs(v0)):
        return False, 0.0
    return True, float(v0 - v1)


def reduce_rank_path(
    inst: LrsdpInstance,
    X0: PsdPoint | np.ndarray,
    tol: float = FEAS_TOL,
) -> ReductionResult:
    """Drive a feasible matrix to rank <= r along constraint-preserving
    linear stages with constant cost and non-increasing tail sum.

    Each non-constant stage moves along a null-space direction until an
    eigenvalue hits zero, choosing the sign on which the tail sum is
    non-increasing (both boundary sides are probed; the in-range guarantee
    comes from concavity of the tail sum).  Raises
    :class:`ReductionStuckError` when no direction exists.
    Only the input and the construction are checked (a direction, a
    boundary step, a monotone side and a rank drop per stage); the samples
    are for :func:`~relaxcert.core.verify_path` to judge.  Each stage is
    one knot segment of ``SEGMENT_SAMPLES`` samples, and the trace holds
    one row generator per stage: a moving stage makes its samples on demand
    as ``U (diag(Sigma) + t alpha Y) U^H``, the expression that also gives
    the stage's endpoint, and a constant stage tiles its matrix.
    """
    start = X0 if isinstance(X0, PsdPoint) else PsdPoint.from_matrix(np.asarray(X0))
    violation = inst.constraint_residual(start.X)
    if violation > tol:
        raise PreconditionError(
            f"starting matrix violates constraints by {violation:.3g}")

    n = inst.n
    r0 = start.rank()

    if r0 <= inst.r:
        trace = PathTrace(params=[0.0, 1.0], points=np.tile(start.X.reshape(-1), (2, 1)),
                          knots=[0, 1])
        return ReductionResult(trace=trace, final=start, stages=())

    n_stages = r0 - inst.r
    local_ts = np.linspace(0.0, 1.0, SEGMENT_SAMPLES)
    pieces: list = []
    stage_infos: list[ReductionStage] = []
    current = start

    for i in range(1, n_stages + 1):
        k_before = current.rank()
        if k_before <= r0 - i:
            pieces.append(lambda a, b, x=current.X.reshape(-1): np.tile(x, (b - a, 1)))
            stage_infos.append(ReductionStage(
                index=i, constant=True, rank_before=k_before, rank_after=k_before))
        else:
            U, sigma = current.factors()
            Y = nullspace_direction(inst, U, sigma)
            if Y is None:
                raise ReductionStuckError(
                    i, f"stage {i}: the direction system has only the zero "
                       f"solution (rank {k_before}, {inst.m} constraints)")
            steps = boundary_step(sigma, Y)
            candidates = []
            for alpha in (steps.alpha_pos, steps.alpha_neg):
                if alpha is None:
                    continue
                ok, drop = _monotone_side(inst, sigma, Y, alpha, n)
                if ok:
                    candidates.append((drop, alpha))
            if not candidates:
                raise CertificateViolationError(
                    f"stage {i}: tail sum increases toward both boundary steps")
            _, alpha = max(candidates)

            pieces.append(lambda a, b, stage=(U, sigma, Y, alpha): _stage_points(
                *stage, local_ts[a:b]).reshape(b - a, n * n))
            end = PsdPoint.from_matrix(_stage_points(U, sigma, Y, alpha, local_ts[-1:])[0],
                                       name=f"stage {i} endpoint")
            if end.rank() >= k_before:
                raise CertificateViolationError(
                    f"stage {i}: rank did not drop ({k_before} -> {end.rank()})")
            stage_infos.append(ReductionStage(
                index=i, constant=False, rank_before=k_before,
                rank_after=end.rank(), alpha=float(alpha)))
            current = end

    params = np.append(0.0, np.arange(n_stages)[:, None] / n_stages
                       + local_ts[1:] / n_stages)
    trace = PathTrace.generated(params, np.arange(n_stages + 1) * (SEGMENT_SAMPLES - 1),
                                n * n, pieces)
    return ReductionResult(trace=trace, final=current, stages=tuple(stage_infos))


def _stage_points(U: np.ndarray, Sigma: np.ndarray, Y: np.ndarray, alpha: float,
                  ts: np.ndarray) -> np.ndarray:
    """The stage matrices ``U (diag(Sigma) + t alpha Y) U^H`` at each t."""
    return U @ _stage_matrices(Sigma, Y, alpha, ts) @ U.conj().T


def lrsdp_certified_problem(inst: LrsdpInstance) -> "CertifiedProblem":
    """Package an instance as a certified problem over flattened matrices."""
    from relaxcert.compose import CertifiedProblem

    n = inst.n

    def _matrices(vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=complex)
        return vec.reshape(*vec.shape[:-1], n, n)

    def evaluate(vec: np.ndarray) -> HandleValues:
        """One ``eigh`` per matrix serves both residuals and the Lyapunov
        value; Re tr(C X) is blind to the anti-Hermitian part of X."""
        raw = _matrices(vec)
        X = _hermitian_part(raw)
        vals = _spectrum(X)
        hermiticity = np.max(np.abs(raw - np.swapaxes(raw, -2, -1).conj()),
                             axis=(-2, -1)) / 2
        worst = np.maximum(hermiticity, inst.constraint_residual(X))
        relaxed = np.maximum(np.maximum(worst, -vals[..., -1]), 0.0)
        tail = _tail(vals, inst.r)
        return HandleValues(inst.cost(raw), relaxed, np.maximum(relaxed, tail), tail)

    bound = 1.0 + float(np.max(np.abs(inst.b)))
    lo = np.full(n * n, -bound - 1j * bound)
    hi = np.full(n * n, bound + 1j * bound)
    return CertifiedProblem(
        handle=ProblemHandle(evaluate),
        path_factory=lambda vec: reduce_rank_path(
            inst, _hermitian_part(_matrices(vec))).trace,
        segment_bound=max(1, n - inst.r),
        box=(lo, hi),
        label="lrsdp",
    )


# --- instance file schema ----------------------------------------------------

def _matrix_from_pairs(raw, n: int, name: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != n:
        raise ValueError(f"{name}: expected {n} rows")
    M = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"{name} row {i}: expected {n} entries")
        for j, entry in enumerate(row):
            M[i, j] = complex_pair(entry, f"{name} entry ({i},{j})")
    return M


def _matrix_to_pairs(M: np.ndarray) -> list:
    return [[[float(M[i, j].real), float(M[i, j].imag)] for j in range(M.shape[1])]
            for i in range(M.shape[0])]


def _count(value, field: str) -> int:
    """A count field: a finite number with no fractional part (so ``2.0``
    is 2), never truncated, and at least 1."""
    number = finite_number(value, field)
    if not number.is_integer():
        raise ValueError(f"{field}: expected an integer, got {value!r}")
    if number < 1:
        raise ValueError(f"{field}: expected at least 1, got {value!r}")
    return int(number)


def instance_from_dict(data: dict) -> LrsdpInstance:
    if not isinstance(data, dict):
        raise ValueError(f"instance: expected an object, got {data!r}")
    for key in ("n", "m", "r", "C", "A", "b"):
        if key not in data:
            raise ValueError(f"instance: missing field {key!r}")
    n, m, r = (_count(data[key], key) for key in ("n", "m", "r"))
    C = _matrix_from_pairs(data["C"], n, "C")
    if not isinstance(data["A"], list) or len(data["A"]) != m:
        raise ValueError(f"A: expected {m} matrices")
    A = [_matrix_from_pairs(raw, n, f"A[{i}]") for i, raw in enumerate(data["A"])]
    b = np.asarray(finite_numbers(data["b"], "b"))
    if len(b) != m:
        raise ValueError(f"b: expected {m} entries, got {len(b)}")
    return LrsdpInstance(C=C, A=A, b=b, r=r)


def instance_to_dict(inst: LrsdpInstance) -> dict:
    return {
        "n": inst.n,
        "m": inst.m,
        "r": inst.r,
        "C": _matrix_to_pairs(inst.C),
        "A": [_matrix_to_pairs(Ai) for Ai in inst.A],
        "b": [float(v) for v in inst.b],
    }


def load_instance(path: str) -> LrsdpInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def write_reduction_csv(path: str, inst: LrsdpInstance, trace: PathTrace,
                        check: PathCheck) -> None:
    """Trace CSV with flattened row-major matrix entries; the ``f`` and ``V``
    columns are the costs and Lyapunov values that ``check``, the
    :func:`~relaxcert.core.verify_path` result for ``trace``, measured."""
    labels = [f"X{i}{j}_{part}" for i in range(inst.n) for j in range(inst.n)
              for part in ("re", "im")]
    write_trace_csv(path, trace, labels, lambda pts: np.ascontiguousarray(pts).view(float),
                    cost=lambda _: check.costs, lyapunov=lambda _: check.lyapunov)
