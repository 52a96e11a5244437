"""Combinators that build certified problems from certified primitives:
cost composition, union of feasible sets (product Lyapunov function), and
intersection of feasible sets (sum Lyapunov function, concatenated paths).

Structural hypotheses (path coincidence for unions, block separability for
intersections) are verified on quasi-random samples, not symbolically; a
failed sample raises :class:`CompositionError` with the witness point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from relaxcert.core import FEAS_TOL, HandleValues, PathTrace, ProblemHandle

SAMPLE_COUNT = 200  # default quasi-random samples for contract checks
ZERO_TOL = 1e-9     # Lyapunov zero-set and coincidence tolerance


class CompositionError(ValueError):
    """A sampled structural hypothesis of a combinator failed."""


@dataclass(frozen=True)
class CertifiedProblem:
    """A problem handle bundled with its restoration-path factory.

    ``path_factory`` maps a point of the relaxed set that is infeasible for
    the original set to a trace ending in the original set along which cost
    and Lyapunov value do not increase.  ``segment_bound`` is the declared
    cap on linear pieces per path (the uniform-regularity proxy) and ``box``
    bounds every path sample.
    """

    handle: ProblemHandle
    path_factory: Callable[[np.ndarray], PathTrace]
    segment_bound: int
    box: tuple[np.ndarray, np.ndarray]
    label: str = ""

    @property
    def dim(self) -> int:
        return len(self.box[0])


def sample_box(
    box: tuple[np.ndarray, np.ndarray], count: int, seed: int = 0
) -> np.ndarray:
    """Quasi-random complex points filling a box (independent real/imag)."""
    from scipy.stats import qmc  # scipy.stats is slow to import; few calls need it

    lo, hi = np.asarray(box[0], dtype=complex), np.asarray(box[1], dtype=complex)
    d = len(lo)
    sampler = qmc.Halton(d=2 * d, scramble=True, seed=seed)
    raw = sampler.random(count)
    re = lo.real + raw[:, :d] * (hi.real - lo.real)
    im = lo.imag + raw[:, d:] * (hi.imag - lo.imag)
    return re + 1j * im


def _points_between(p: CertifiedProblem, count: int, seed: int) -> np.ndarray:
    """Sampled points of the relaxed set that are infeasible for the original."""
    xs = sample_box(p.box, count, seed)
    values = p.handle.evaluate(xs)
    return xs[(values.relaxed <= FEAS_TOL) & (values.feasible > FEAS_TOL)]


def _trace_gap(t1: PathTrace, t2: PathTrace) -> float:
    return max(float(np.max(np.abs(t1.evaluate(t) - t2.evaluate(t)), initial=0.0))
               for t in np.linspace(0.0, 1.0, 33))


def _pair_handle(
    p1: CertifiedProblem, p2: CertifiedProblem, mode: str, lam: float,
    feasible: Callable[[HandleValues, HandleValues, np.ndarray], np.ndarray],
    lyapunov: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[tuple[np.ndarray, np.ndarray], ProblemHandle]:
    """Check the dimensions, cost mode and weight of a union or
    intersection; return the common box and a handle that evaluates each
    part once per stack: the ``lam``-weighted sum or max of their costs,
    the worse relaxed residual, ``feasible(a, b, relaxed)`` of both parts'
    values and ``lyapunov`` of their Lyapunov values."""
    if p1.dim != p2.dim:
        raise CompositionError("primitives live in different ambient spaces")
    if mode not in ("sum", "max"):
        raise CompositionError(f"unknown cost mode {mode!r}")
    if mode == "sum" and not 0.0 < lam < 1.0:
        raise CompositionError("sum mode needs lam strictly inside (0, 1)")
    (lo1, hi1), (lo2, hi2) = p1.box, p2.box
    lo = np.maximum(lo1.real, lo2.real) + 1j * np.maximum(lo1.imag, lo2.imag)
    hi = np.minimum(hi1.real, hi2.real) + 1j * np.minimum(hi1.imag, hi2.imag)
    if np.any(lo.real > hi.real) or np.any(lo.imag > hi.imag):
        raise CompositionError("problem boxes do not intersect")
    h1, h2 = p1.handle, p2.handle

    def evaluate(x):
        a, b = h1.evaluate(x), h2.evaluate(x)
        cost = (lam * a.cost + (1.0 - lam) * b.cost if mode == "sum"
                else np.maximum(a.cost, b.cost))
        relaxed = np.maximum(a.relaxed, b.relaxed)
        return HandleValues(cost, relaxed, feasible(a, b, relaxed),
                            lyapunov(a.lyapunov, b.lyapunov))

    return (lo, hi), ProblemHandle(evaluate)


def compose_cost(
    p: CertifiedProblem,
    g: Callable[[float], float],
    samples: int = SAMPLE_COUNT,
    seed: int = 0,
) -> CertifiedProblem:
    """Replace the cost by ``g(cost)`` for non-decreasing convex ``g``.

    The Lyapunov function and paths carry over unchanged.  ``g`` is a
    scalar function, applied to each point's cost; it is spot-checked for
    monotonicity and midpoint convexity over the range of costs seen on box
    samples.
    """
    xs = sample_box(p.box, samples, seed)
    costs = p.handle.evaluate(xs).cost
    lo, hi = float(np.min(costs)), float(np.max(costs))
    if hi <= lo:
        hi = lo + 1.0
    ys = np.linspace(lo, hi, 65)
    gs = np.array([g(y) for y in ys])
    scale = max(1.0, float(np.max(np.abs(gs))))
    if np.any(np.diff(gs) < -ZERO_TOL * scale):
        i = int(np.argmin(np.diff(gs)))
        raise CompositionError(
            f"g is not non-decreasing near y={ys[i]:.6g}")
    second = gs[:-2] - 2 * gs[1:-1] + gs[2:]
    if np.any(second < -ZERO_TOL * scale):
        i = int(np.argmin(second))
        raise CompositionError(f"g is not convex near y={ys[i + 1]:.6g}")

    base = p.handle.evaluate
    g_each = np.vectorize(g, otypes=[float])

    def evaluate(x):
        values = base(x)
        return values._replace(cost=g_each(values.cost)[()])

    return replace(p, handle=ProblemHandle(evaluate), label=f"compose({p.label})")


def union_feasible(
    p1: CertifiedProblem,
    p2: CertifiedProblem,
    mode: str = "sum",
    lam: float = 0.5,
    samples: int = SAMPLE_COUNT,
    seed: int = 0,
) -> CertifiedProblem:
    """Union of feasible sets inside the intersection of the relaxations.

    The new Lyapunov function is the product of the primitives' and the new
    paths are the first primitive's; this requires the two path factories to
    coincide on the relaxed-but-infeasible region, which is checked on
    sampled points.
    """
    box, handle = _pair_handle(
        p1, p2, mode, lam,
        feasible=lambda a, b, relaxed: np.maximum(
            np.minimum(a.feasible, b.feasible), relaxed),
        lyapunov=np.multiply)
    composite = CertifiedProblem(
        handle=handle,
        path_factory=p1.path_factory,
        segment_bound=p1.segment_bound,
        box=box,
        label=f"union({p1.label},{p2.label})",
    )

    for x in _points_between(composite, samples, seed):
        gap = _trace_gap(p1.path_factory(x), p2.path_factory(x))
        if gap > ZERO_TOL:
            raise CompositionError(
                f"path factories diverge by {gap:.3g} at sampled point {x}")
    return composite


def intersect_feasible(
    p1: CertifiedProblem,
    p2: CertifiedProblem,
    split: tuple[Sequence[int], Sequence[int]],
    mode: str = "sum",
    lam: float = 0.5,
    samples: int = SAMPLE_COUNT,
    seed: int = 0,
) -> CertifiedProblem:
    """Intersection of feasible sets over a shared relaxation.

    ``split`` gives the coordinate blocks the two primitives own.  Each
    primitive's cost and Lyapunov function may depend only on its own block
    and its paths must leave the other block untouched (checked on samples).
    The new Lyapunov function is the sum; paths fix one block at a time,
    concatenating when both blocks start infeasible.
    """
    box, handle = _pair_handle(
        p1, p2, mode, lam,
        feasible=lambda a, b, relaxed: np.maximum(a.feasible, b.feasible),
        lyapunov=np.add)
    blk1 = np.asarray(split[0], dtype=int)
    blk2 = np.asarray(split[1], dtype=int)
    if sorted([*blk1, *blk2]) != list(range(p1.dim)):
        raise CompositionError("split blocks must partition the coordinates")

    xs = sample_box(box, samples, seed)

    # separability: each primitive must ignore the other block, on points
    # whose foreign block is copied from another sample
    rng = np.random.default_rng(seed)
    probes = xs[:50]
    for p, other in ((p1, blk2), (p2, blk1)):
        moved = probes.copy()
        for y in moved:
            y[other] = xs[rng.integers(0, len(xs))][other]
        at_x, at_y = p.handle.evaluate(probes), p.handle.evaluate(moved)
        for x, fx, fy, vx, vy in zip(probes, at_x.cost, at_y.cost,
                                     at_x.lyapunov, at_y.lyapunov):
            if abs(fy - fx) > ZERO_TOL * (1.0 + abs(fx)):
                raise CompositionError(
                    f"{p.label or 'primitive'}: cost depends on the foreign block "
                    f"(witness {x})")
            if abs(vx - vy) > ZERO_TOL * (1.0 + abs(vx)):
                raise CompositionError(
                    f"{p.label or 'primitive'}: Lyapunov value depends on the "
                    f"foreign block (witness {x})")

    # paths must leave the foreign block constant
    for p, other in ((p1, blk2), (p2, blk1)):
        for x in _points_between(p, samples, seed)[:20]:
            tr = p.path_factory(x)
            drift = np.max(np.abs(tr.points[:, other] - tr.points[0, other]),
                           initial=0.0)
            if drift > ZERO_TOL:
                raise CompositionError(
                    f"{p.label or 'primitive'}: path moves the foreign block by "
                    f"{drift:.3g} (witness {x})")

    def path_factory(x: np.ndarray) -> PathTrace:
        v1, v2 = p1.handle.evaluate(x).lyapunov, p2.handle.evaluate(x).lyapunov
        if v1 <= ZERO_TOL:
            return p2.path_factory(x)
        if v2 <= ZERO_TOL:
            return p1.path_factory(x)
        first = p1.path_factory(x)
        second = p2.path_factory(first.end)
        joint_gap = float(np.max(np.abs(second.start - first.end), initial=0.0))
        if joint_gap > ZERO_TOL:
            raise CompositionError(
                f"second-stage path does not start at the first stage's end "
                f"(gap {joint_gap:.3g})")
        params = np.concatenate([0.5 * first.params, 0.5 + 0.5 * second.params[1:]])
        points = np.concatenate([first.points, second.points[1:]], axis=0)
        knots = np.concatenate([first.knots, len(first) - 1 + second.knots[1:]])
        return PathTrace(params=params, points=points, knots=knots)

    return CertifiedProblem(
        handle=handle,
        path_factory=path_factory,
        segment_bound=p1.segment_bound + p2.segment_bound,
        box=box,
        label=f"intersect({p1.label},{p2.label})",
    )
