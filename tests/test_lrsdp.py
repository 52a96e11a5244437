"""Tests for the rank-reduction machinery."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from gen import random_feasible_psd, random_spectraplex_instance
from relaxcert.certify import check_c2_proxy
from relaxcert.cli import main
from relaxcert.core import (
    SEGMENT_SAMPLES,
    PathTrace,
    PreconditionError,
    check_piecewise_linear_family,
    verify_path,
)
from relaxcert.lrsdp import (
    BoundarySteps,
    LrsdpInstance,
    PsdPoint,
    ReductionStuckError,
    boundary_step,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    lrsdp_certified_problem,
    lyapunov_tail,
    nullspace_direction,
    reduce_rank_path,
    write_reduction_csv,
)

CASES = os.path.join(os.path.dirname(__file__), os.pardir, "cases")


def tiny_instance(C=None, r=1):
    C = np.diag([1.0, 2.0]) if C is None else C
    return LrsdpInstance(C=C, A=[np.eye(C.shape[0])], b=np.array([1.0]), r=r)


class TestInstanceValidation:
    def test_non_hermitian_named_entry(self):
        C = np.array([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            LrsdpInstance(C=C, A=[np.eye(2)], b=[1.0], r=1)

    def test_dimension_condition_flag(self):
        inst = tiny_instance()  # (r+1)(r+2)/2 = 3 > m+1 = 2
        assert inst.dimension_condition
        inst2 = LrsdpInstance(C=np.eye(2), A=[np.eye(2), np.diag([1.0, 2.0])],
                              b=[1.0, 1.5], r=1)  # 3 > 3 fails
        assert not inst2.dimension_condition

    def test_complex_hermitian_accepted(self):
        C = np.array([[1.0, 1j], [-1j, 2.0]])
        inst = LrsdpInstance(C=C, A=[np.eye(2)], b=[1.0], r=1)
        assert not inst.is_real


class TestLyapunovTail:
    def test_half_half(self):
        inst = tiny_instance()
        assert lyapunov_tail(inst, np.diag([0.5, 0.5])) == pytest.approx(0.5)

    def test_rank_one_is_zero(self):
        inst = tiny_instance()
        u = np.array([[0.6], [0.8]])
        assert lyapunov_tail(inst, u @ u.T) <= 1e-12

    def test_three_by_three_tail(self):
        inst = LrsdpInstance(C=np.eye(3), A=[np.eye(3)], b=[6.0], r=1)
        assert lyapunov_tail(inst, np.diag([3.0, 2.0, 1.0])) == pytest.approx(3.0)

    def test_indefinite_rejected(self):
        inst = tiny_instance()
        with pytest.raises((PreconditionError, ValueError)):
            lyapunov_tail(inst, np.diag([1.0, -0.5]))


class TestNullspaceDirection:
    def test_two_by_two_solution(self):
        # equations: tr(Y) = 0 and Y00 + 2 Y11 = 0 force zero diagonal
        inst = tiny_instance()
        Y = nullspace_direction(inst, np.eye(2), np.array([0.5, 0.5]))
        assert Y is not None
        assert np.linalg.norm(Y) == pytest.approx(1.0)
        assert abs(np.trace(Y)) < 1e-12
        assert abs(Y[0, 0] + 2 * Y[1, 1]) < 1e-12
        assert abs(Y[0, 0]) < 1e-12 and abs(Y[1, 1]) < 1e-12
        assert abs(Y[0, 1]) > 0.1  # off-diagonal-only direction

    def test_square_full_rank_system_returns_none(self):
        # k(k+1)/2 = 3 = m+1 with generic real data
        rng = np.random.default_rng(0)
        M1 = rng.normal(size=(2, 2))
        A2 = (M1 + M1.T) / 2
        M2 = rng.normal(size=(2, 2))
        C = (M2 + M2.T) / 2
        inst = LrsdpInstance(C=C, A=[np.eye(2), A2], b=[1.0, 0.3], r=1)
        Y = nullspace_direction(inst, np.eye(2), np.array([0.5, 0.5]))
        assert Y is None

    def test_dimension_count_guarantees_direction(self):
        # k=2, r=1, m=1: 3 unknowns > 2 equations
        rng = np.random.default_rng(1)
        for _ in range(10):
            M = rng.normal(size=(2, 2))
            inst = tiny_instance(C=(M + M.T) / 2)
            Y = nullspace_direction(inst, np.eye(2), np.array([0.3, 0.7]))
            assert Y is not None and np.linalg.norm(Y) > 0.9

    def test_residuals_within_tolerance(self):
        rng = np.random.default_rng(2)
        inst = random_spectraplex_instance(rng, n=4)
        X = random_feasible_psd(rng, 4, rank=3)
        point = PsdPoint.from_matrix(X)
        U, sig = point.factors()
        Y = nullspace_direction(inst, U, sig)
        assert abs(np.trace(U.conj().T @ inst.C @ U @ Y).real) <= 1e-9
        assert abs(np.trace(U.conj().T @ inst.A[0] @ U @ Y).real) <= 1e-9

    def test_non_orthonormal_U_rejected(self):
        inst = tiny_instance()
        with pytest.raises(PreconditionError):
            nullspace_direction(inst, 2.0 * np.eye(2), np.array([0.5, 0.5]))

    def test_complex_hermitian_direction(self):
        C = np.array([[1.0, 1j], [-1j, 2.0]])
        inst = LrsdpInstance(C=C, A=[np.eye(2)], b=[1.0], r=1)
        Y = nullspace_direction(inst, np.eye(2), np.array([0.5, 0.5]))
        assert Y is not None
        assert np.max(np.abs(Y - Y.conj().T)) < 1e-12


class TestBoundaryStep:
    def test_symmetric_diagonal(self):
        steps = boundary_step(np.array([1.0, 1.0]), np.diag([1.0, -1.0]))
        assert steps.alpha_pos == pytest.approx(1.0)
        assert steps.alpha_neg == pytest.approx(-1.0)

    def test_one_sided(self):
        steps = boundary_step(np.array([2.0, 1.0]), np.diag([0.0, -1.0]))
        assert steps.alpha_pos == pytest.approx(1.0)
        assert steps.alpha_neg is None

    def test_psd_direction_only_negative(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=(3, 1))
        Y = u @ u.T  # PSD rank-1
        lam = float(np.max(np.linalg.eigvalsh(Y)))
        steps = boundary_step(np.ones(3), Y)
        assert steps.alpha_pos is None
        assert steps.alpha_neg == pytest.approx(-1.0 / lam)

    def test_rank_drops_at_boundary(self):
        rng = np.random.default_rng(4)
        sig = rng.uniform(0.5, 2.0, 4)
        M = rng.normal(size=(4, 4))
        Y = (M + M.T) / 2
        steps = boundary_step(sig, Y)
        for alpha in (steps.alpha_pos, steps.alpha_neg):
            if alpha is None:
                continue
            D = np.diag(sig) + alpha * Y
            vals = np.linalg.eigvalsh(D)
            assert np.min(vals) >= -1e-9
            assert np.min(np.abs(vals)) <= 1e-9  # singular at the step

    def test_zero_direction_rejected(self):
        with pytest.raises(PreconditionError):
            boundary_step(np.ones(2), np.zeros((2, 2)))

    def test_matrix_sigma_rejected(self):
        # a non-diagonal matrix must not be read as its diagonal
        with pytest.raises(PreconditionError, match=r"1-D spectrum, got shape \(2, 2\)"):
            boundary_step(np.array([[2.0, 1.0], [1.0, 2.0]]), np.diag([1.0, -1.0]))


class TestReduceRankPath:
    def test_already_low_rank_is_constant(self):
        inst = tiny_instance()
        u = np.array([[0.6], [0.8]])
        result = reduce_rank_path(inst, u @ u.T)
        assert result.stages == ()
        np.testing.assert_allclose(result.final.X, u @ u.T, atol=1e-12)
        assert np.max(np.abs(result.trace.points[0] - result.trace.points[-1])) == 0
        assert result.trace.knots.tolist() == [0, 1]

    def test_knots_at_stage_boundaries(self):
        rng = np.random.default_rng(9)
        inst = random_spectraplex_instance(rng, n=4, degenerate=True)
        result = reduce_rank_path(inst, random_feasible_psd(rng, 4))
        n_stages = len(result.stages)
        assert n_stages == 3
        trace = result.trace
        assert trace.knots.tolist() == [0, 100, 200, 300]
        np.testing.assert_allclose(trace.params[trace.knots],
                                   np.arange(n_stages + 1) / n_stages, atol=1e-15)

    def test_each_knot_sample_ends_its_stage(self):
        """The parameters are the stage grids joined end to end, each knot
        kept from the stage it ends, and the last sample is the final
        matrix."""
        rng = np.random.default_rng(10)
        inst = random_spectraplex_instance(rng, n=6, degenerate=True)
        result = reduce_rank_path(inst, random_feasible_psd(rng, 6))
        n_stages = len(result.stages)
        assert n_stages == 5
        ts = np.linspace(0.0, 1.0, SEGMENT_SAMPLES)
        grid = np.concatenate([((i - 1) / n_stages + ts / n_stages)[min(i - 1, 1):]
                               for i in range(1, n_stages + 1)])
        assert result.trace.params.tobytes() == grid.tobytes()
        assert result.trace.points[-1].tobytes() == result.final.X.reshape(-1).tobytes()

    def test_two_by_two_demo(self):
        inst = tiny_instance()  # C = diag(1, 2), spectraplex
        result = reduce_rank_path(inst, np.eye(2) / 2)
        final = result.final
        assert final.rank() == 1
        assert np.trace(final.X).real == pytest.approx(1.0, abs=1e-9)
        assert inst.cost(final.X) == pytest.approx(1.5, abs=1e-8)
        # full-rank start: exactly one moving stage
        assert len(result.stages) == 1 and not result.stages[0].constant

    def test_conservation_along_trace(self):
        rng = np.random.default_rng(5)
        inst = random_spectraplex_instance(rng, n=4)
        X0 = random_feasible_psd(rng, 4, rank=3)
        result = reduce_rank_path(inst, X0)
        f0 = inst.cost(X0)
        for vec in result.trace.points:
            X = vec.reshape(4, 4)
            assert inst.constraint_residual(X) <= 1e-8
            assert abs(inst.cost(X) - f0) <= 1e-8 * (1 + abs(f0))
            assert np.min(np.linalg.eigvalsh((X + X.conj().T) / 2)) >= -1e-8

    def test_rank_monotone_and_bounded_stages(self):
        rng = np.random.default_rng(6)
        inst = random_spectraplex_instance(rng, n=4)
        X0 = random_feasible_psd(rng, 4, rank=3)
        result = reduce_rank_path(inst, X0)
        assert result.final.rank() <= 1
        assert len(result.stages) <= 2
        ranks = [s.rank_before for s in result.stages] + [result.final.rank()]
        assert all(ranks[i + 1] <= ranks[i] for i in range(len(ranks) - 1))

    def test_tail_nonincreasing_at_101_samples(self):
        rng = np.random.default_rng(7)
        inst = random_spectraplex_instance(rng, n=5)
        X0 = random_feasible_psd(rng, 5)
        result = reduce_rank_path(inst, X0)
        vals = [lyapunov_tail(inst, (vec.reshape(5, 5) + vec.reshape(5, 5).conj().T) / 2)
                for vec in result.trace.points]
        diffs = np.diff(vals)
        assert np.all(diffs <= 1e-12 * (1 + np.abs(np.asarray(vals[:-1]))))

    def test_stuck_when_direction_space_is_trivial(self):
        rng = np.random.default_rng(8)
        M1 = rng.normal(size=(2, 2))
        A2 = (M1 + M1.T) / 2
        M2 = rng.normal(size=(2, 2))
        C = (M2 + M2.T) / 2
        X0 = np.eye(2) / 2
        b2 = float(np.trace(A2 @ X0))
        inst = LrsdpInstance(C=C, A=[np.eye(2), A2], b=[1.0, b2], r=1)
        assert not inst.dimension_condition
        with pytest.raises(ReductionStuckError) as exc:
            reduce_rank_path(inst, X0)
        assert exc.value.stage == 1

    def test_infeasible_start_rejected(self):
        inst = tiny_instance()
        with pytest.raises(PreconditionError):
            reduce_rank_path(inst, np.eye(2))  # trace 2 != 1

    def test_weak_exactness_demo(self):
        # reduction from any relaxation optimum preserves the optimal cost
        rng = np.random.default_rng(9)
        inst = random_spectraplex_instance(rng, n=4, degenerate=True)  # C = I
        X_opt = random_feasible_psd(rng, 4)  # every feasible point is optimal
        result = reduce_rank_path(inst, X_opt)
        assert result.final.rank() <= 1
        assert inst.cost(result.final.X) == pytest.approx(inst.cost(X_opt), abs=1e-7)

    def test_complex_instance_reduces(self):
        rng = np.random.default_rng(10)
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        C = (M + M.conj().T) / 2
        inst = LrsdpInstance(C=C, A=[np.eye(3)], b=[1.0], r=1)
        W = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        X0 = W @ W.conj().T
        X0 /= np.trace(X0).real
        result = reduce_rank_path(inst, X0)
        assert result.final.rank() <= 1
        assert abs(inst.cost(result.final.X) - inst.cost(X0)) <= 1e-8 * (
            1 + abs(inst.cost(X0)))


def complex_instance(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    X0 = W @ W.conj().T
    return LrsdpInstance(C=(M + M.conj().T) / 2, A=[np.eye(n)], b=[1.0], r=1), X0 / np.trace(X0).real


def demo_reduction():
    # the relaxation optimum is rank one already: start from the centre
    return load_instance(os.path.join(CASES, "demo_lrsdp.json")), np.eye(2) / 2


def identity_reduction(n):
    rng = np.random.default_rng(n)
    return (random_spectraplex_instance(rng, n=n, degenerate=True),
            random_feasible_psd(rng, n))


REDUCTIONS = {
    "demo_lrsdp": demo_reduction,
    "complex-n5": lambda: complex_instance(np.random.default_rng(12), 5),
    "identity-n15": lambda: identity_reduction(15),
    "identity-n20": lambda: identity_reduction(20),
}


@pytest.fixture(scope="module", params=sorted(REDUCTIONS))
def reduction(request):
    inst, X0 = REDUCTIONS[request.param]()
    result = reduce_rank_path(inst, X0)
    assert len(result.stages) > 0
    return inst, X0, result.trace


class TestGeneratorTrace:
    """A reduction trace makes its samples from its stage generators; any
    range of rows, and every consumer, sees the samples that the stored
    array of the same rows gives."""

    def test_rows_equal_points_across_knots(self, reduction):
        _, _, trace = reduction
        points = trace.points
        K, step = len(trace), int(trace.knots[1])
        ranges = [(0, K), (0, 1), (K - 1, K), (0, step + 2), (step - 1, step + 2),
                  (step, step + 1), (step + 1, K), (step // 2, K - step // 2),
                  *((k - 1, k + 1) for k in trace.knots[1:-1].tolist()),
                  (step, step)]
        for lo, hi in ranges:
            hi = min(hi, K)
            assert trace.rows(lo, hi).tobytes() == points[lo:hi].tobytes(), (lo, hi)
        assert trace.start.tobytes() == points[0].tobytes()
        assert trace.end.tobytes() == points[-1].tobytes()

    def test_consumers_match_the_stored_trace(self, reduction, tmp_path):
        inst, X0, trace = reduction
        stored = PathTrace(trace.params, trace.points, trace.knots)
        problem = lrsdp_certified_problem(inst)
        x = X0.reshape(-1)
        checks = [verify_path(problem.handle, x, tr) for tr in (trace, stored)]
        for field in ("relaxed", "costs", "lyapunov"):
            a, b = (getattr(c, field) for c in checks)
            assert a.tobytes() == b.tobytes(), field
        assert (checks[0].anchor_gap, checks[0].end_residual) == (
            checks[1].anchor_gap, checks[1].end_residual)
        assert check_c2_proxy(problem, [trace]) == check_c2_proxy(problem, [stored])
        boxes = [check_piecewise_linear_family([tr], problem.segment_bound).bounding_box
                 for tr in (trace, stored)]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*boxes))
        for name, tr in (("generated", trace), ("stored", stored)):
            write_reduction_csv(str(tmp_path / f"{name}.csv"), inst, tr, checks[0])
        assert ((tmp_path / "generated.csv").read_bytes()
                == (tmp_path / "stored.csv").read_bytes())


def test_lrsdp_cli_holds_no_trace_array(tmp_path):
    """``relaxcert lrsdp`` on C = I at n = 20: 19 stages, 1901 samples of
    400 complex entries, an 11.6 MiB array that a materialized trace holds
    for the whole run (a 14.4 MiB peak); made one stage at a time, the run
    peaks at about 3.5 MiB.  The modules the run imports are loaded by a
    small run first, untraced."""
    for n in (3, 20):
        inst = random_spectraplex_instance(np.random.default_rng(0), n=n, degenerate=True)
        path = tmp_path / f"identity{n}.json"
        path.write_text(json.dumps(instance_to_dict(inst)))
    assert main(["lrsdp", str(tmp_path / "identity3.json"), "--out", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        code = main(["lrsdp", str(tmp_path / "identity20.json"), "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 6 * 2**20


def test_instance_json_round_trip():
    rng = np.random.default_rng(11)
    inst = random_spectraplex_instance(rng, n=3)
    data = instance_to_dict(inst)
    inst2 = instance_from_dict(data)
    np.testing.assert_allclose(inst2.C, inst.C)
    np.testing.assert_allclose(inst2.b, inst.b)
    assert inst2.r == inst.r


def test_instance_json_rejects_bad_entry():
    data = {
        "n": 2, "m": 1, "r": 1,
        "C": [[[1, 0], 2], [[0, 0], [1, 0]]],
        "A": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
        "b": [1.0],
    }
    with pytest.raises(ValueError, match=r"\(0,1\)"):
        instance_from_dict(data)
