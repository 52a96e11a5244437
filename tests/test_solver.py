"""Tests for the conic solver front-ends."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from gen import random_radial_network, random_spectraplex_instance, two_bus_case
from relaxcert.certify import brute_force_oracle, eliminated_opf_grid
from relaxcert.core import FEAS_TOL
from relaxcert.distflow import (
    Bus,
    Line,
    OpfCost,
    RadialNetwork,
    load_case,
    residual_X,
    residual_Xhat,
)
from relaxcert.lrsdp import LrsdpInstance, load_instance
from relaxcert.solver import (
    DEFAULT_OPTIONS,
    _kkt_solver,
    _project_rsoc,
    build_lrsdp_program,
    build_opf_program,
    hermitian_to_rvec,
    rvec_to_hermitian,
    solve_conic,
    solve_lrsdp_relaxation,
    solve_opf_relaxation,
)

CASES = os.path.join(os.path.dirname(__file__), os.pardir, "cases")


def fixed_load_case(z=0.02 + 0.02j, load=0.5 + 0.2j):
    buses = (
        Bus(id="0", v_min=0.9, v_max=1.1, s_min=None, s_max=complex(3, 3)),
        Bus(id="1", v_min=0.9, v_max=1.1,
            s_min=complex(-load.real, -load.imag),
            s_max=complex(-load.real, -load.imag)),
    )
    net = RadialNetwork(buses=buses,
                        lines=(Line(tail="0", head="1", z=z, l_max=3.0),),
                        root="0")
    cost = OpfCost(cp=np.ones(2), cq=np.ones(2), qp=np.zeros(2), qq=np.zeros(2))
    return net, cost, load


class TestHermitianVectorization:
    def test_round_trip_and_inner_product(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            A = (M + M.conj().T) / 2
            M2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            B = (M2 + M2.conj().T) / 2
            np.testing.assert_allclose(rvec_to_hermitian(hermitian_to_rvec(A), n),
                                       A, atol=1e-12)
            assert hermitian_to_rvec(A) @ hermitian_to_rvec(B) == pytest.approx(
                np.trace(A @ B).real, abs=1e-10)


def project_rsoc_reference(block):
    """One rotated cone at a time: rotate to the standard cone, project,
    rotate back."""
    rot = block.copy()
    rot[0] = np.sqrt(0.5) * (block[0] + block[1])
    rot[1] = np.sqrt(0.5) * (block[0] - block[1])
    t, z = rot[0], rot[1:]
    zn = np.linalg.norm(z)
    if zn <= t:
        proj = rot
    elif zn <= -t:
        proj = np.zeros_like(rot)
    else:
        coef = 0.5 * (1.0 + t / zn)
        proj = np.concatenate([[coef * zn], coef * z])
    out = proj.copy()
    out[0] = np.sqrt(0.5) * (proj[0] + proj[1])
    out[1] = np.sqrt(0.5) * (proj[0] - proj[1])
    return out


class TestConicKernels:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_batched_rotated_cone_projection(self, dim):
        rng = np.random.default_rng(dim)
        blocks = rng.normal(size=(60, dim))
        blocks[:20, :2] = rng.uniform(0.5, 1.5, size=(20, 2))
        blocks[:20, 2:] = rng.uniform(-0.3, 0.3, size=(20, dim - 2))  # 2ab > |u|^2
        blocks[20:40] = -blocks[:20]  # the polar cone
        blocks[40] = 0.0
        reference = np.array([project_rsoc_reference(b) for b in blocks])
        np.testing.assert_allclose(_project_rsoc(blocks), reference,
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(reference[20:41], 0.0)
        np.testing.assert_allclose(reference[:20], blocks[:20], rtol=1e-15)

    @pytest.mark.parametrize("kind", ["opf", "sdp"])
    def test_kkt_step_solves_the_embedding_system(self, kind):
        rng = np.random.default_rng(7)
        if kind == "opf":
            prog, _ = build_opf_program(*random_radial_network(rng, n_bus=6))
        else:
            prog = build_lrsdp_program(random_spectraplex_instance(rng, n=4))
        A, b, c = prog.A.toarray(), prog.b, prog.c
        m, n = A.shape
        Q = np.zeros((n + m + 1, n + m + 1))
        Q[:n, n:n + m] = A.T
        Q[:n, -1] = c
        Q[n:n + m, :n] = -A
        Q[n:n + m, -1] = b
        Q[-1, :n] = -c
        Q[-1, n:n + m] = -b
        r = rng.normal(size=n + m + 1)
        z, tau = _kkt_solver(prog.A, c, b)(r[:-1], r[-1])
        u = np.append(z, tau)
        residual = u + Q @ u - r
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(r)

    def test_thousand_bus_feeder_fits_in_memory(self):
        net, cost = random_radial_network(np.random.default_rng(0), n_bus=1000)
        tracemalloc.start()
        try:
            prog, _ = build_opf_program(net, cost)
            raw = solve_conic(prog, {"max_iter": 50})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert raw.iterations == 50
        assert peak < 200e6


class TestOpfSolve:
    def test_two_bus_cone_tight_in_exactness_regime(self):
        rng = np.random.default_rng(1)
        net, cost = two_bus_case(rng)
        res = solve_opf_relaxation(net, cost)
        assert res.status == "optimal"
        assert res.optimality_residual <= 1e-8
        assert residual_Xhat(net, res.point) <= 1e-8
        assert residual_X(net, res.point) <= 1e-7  # cone tight: exact

    def test_objective_matches_oracle_lower_bound(self):
        rng = np.random.default_rng(2)
        net, cost = two_bus_case(rng)
        res = solve_opf_relaxation(net, cost)
        oracle = brute_force_oracle(eliminated_opf_grid(net, cost),
                                    resolution=0.01)
        bound = 2 * oracle.resolution * oracle.max_slope + 1e-6
        # relaxation lower-bounds the non-convex problem
        assert res.objective <= oracle.global_cost + bound
        assert abs(res.objective - oracle.global_cost) <= bound

    def test_only_bounded_injections_get_lower_rows(self):
        def box_rows(net, cost):
            prog, vm = build_opf_program(net, cost)
            c = prog.cones
            return prog.A.toarray()[c.n_zero:c.n_zero + c.n_nonneg], vm

        box, vm = box_rows(*load_case(os.path.join(CASES, "demo_3bus.json")))
        assert np.all(box[:, vm.sp:vm.v] >= 0)  # upper-bound rows only
        net, cost, _ = fixed_load_case()  # bus 0 unbounded, bus 1 boxed
        box, vm = box_rows(net, cost)
        assert np.all(box[:, [vm.sp, vm.sq]] >= 0)
        assert np.any(box[:, vm.sp + 1] < 0) and np.any(box[:, vm.sq + 1] < 0)

    def test_empty_voltage_box_infeasible(self):
        net, cost, _ = fixed_load_case()
        buses = (dataclasses.replace(net.buses[0], v_min=1.2, v_max=1.1),
                 net.buses[1])
        bad = RadialNetwork(buses=buses, lines=net.lines, root=net.root)
        res = solve_opf_relaxation(bad, cost)
        assert res.status == "infeasible"

    def test_fixed_load_matches_forward_oracle(self):
        # minimal root injection: raise the root voltage to its cap, then
        # S solves S = load + z |S|^2 / v_max
        net, cost, load = fixed_load_case()
        res = solve_opf_relaxation(net, cost)
        assert res.status == "optimal"
        v0 = net.v_max[0]
        S = load
        for _ in range(200):
            S = load + net.z[0] * abs(S) ** 2 / v0
        expected = (S.real + S.imag) + (-load.real - load.imag)
        assert res.objective == pytest.approx(expected, abs=1e-7)
        assert res.point.v[0] == pytest.approx(v0, abs=1e-7)

    def test_quadratic_cost_supported(self):
        rng = np.random.default_rng(3)
        net, _ = two_bus_case(rng)
        cost = OpfCost(cp=np.ones(2), cq=np.ones(2),
                       qp=np.array([0.5, 0.0]), qq=np.zeros(2))
        res = solve_opf_relaxation(net, cost)
        assert res.status == "optimal"
        # loss-only optimum: all terms vanish at S = 0
        assert res.objective == pytest.approx(0.0, abs=1e-7)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(4)
        net, cost = two_bus_case(rng)
        a = solve_opf_relaxation(net, cost)
        b = solve_opf_relaxation(net, cost)
        assert a.iterations == b.iterations
        assert a.objective == b.objective
        assert np.array_equal(a.point.s, b.point.s)
        assert np.array_equal(a.point.v, b.point.v)

    def test_gap_identity(self):
        rng = np.random.default_rng(5)
        net, cost = two_bus_case(rng)
        res = solve_opf_relaxation(net, cost)
        assert res.gap == abs(res.primal_obj - res.dual_obj)
        assert abs(res.gap - abs(res.primal_obj - res.dual_obj)) <= 1e-12

    def test_max_iter_reports_residuals(self):
        # the overloaded line's certificate is found at iteration 125; a run
        # stopped at 100 ends at max_iter without an iterate
        net, cost, _ = fixed_load_case(load=10.0 + 0.0j)  # line overload
        res = solve_opf_relaxation(net, cost, options={"max_iter": 100})
        assert res.status == "max_iter"
        assert res.point is None
        assert res.note.startswith("homogeneous ray dominates the iterate")

    def test_overloaded_line_is_infeasible(self):
        # the iterate itself is the certificate once tau has collapsed, long
        # before max_iter
        net, cost, _ = fixed_load_case(load=10.0 + 0.0j)
        res = solve_opf_relaxation(net, cost)
        assert res.status == "infeasible"
        assert res.iterations <= 1000


class TestLrsdpSolve:
    def test_diagonal_spectraplex(self):
        inst = LrsdpInstance(C=np.diag([1.0, 2.0]), A=[np.eye(2)], b=[1.0], r=1)
        res = solve_lrsdp_relaxation(inst)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0, abs=1e-7)
        np.testing.assert_allclose(res.point.X.real, np.diag([1.0, 0.0]), atol=1e-6)

    def test_identity_cost_forces_trace_objective(self):
        inst = LrsdpInstance(C=np.eye(3), A=[np.eye(3)], b=[1.0], r=1)
        res = solve_lrsdp_relaxation(inst)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0, abs=1e-7)

    def test_zero_row_infeasible(self):
        inst = LrsdpInstance(C=np.eye(2), A=[np.zeros((2, 2))], b=[1.0], r=1)
        res = solve_lrsdp_relaxation(inst)
        assert res.status == "infeasible"

    def test_negative_trace_is_infeasible(self):
        # trace X = -1 has no PSD solution; the iterate itself is the
        # certificate once tau has collapsed
        inst = load_instance(os.path.join(CASES, "demo_lrsdp.json"))
        res = solve_lrsdp_relaxation(dataclasses.replace(inst, b=[-1.0]))
        assert res.status == "infeasible"
        assert res.iterations <= 1000

    def test_point_meets_constraint_to_membership_tolerance(self):
        # the point is read from the PSD block of the slack, so each diagonal
        # residual adds to the trace; a stop test on the worst row alone
        # left this instance's trace 1.17e-8 off
        rng = np.random.default_rng([202, 3, 2])
        M = rng.normal(size=(30, 30))
        inst = LrsdpInstance(C=(M + M.T) / 2, A=[np.eye(30)], b=[1.0], r=1)
        res = solve_lrsdp_relaxation(inst, options={"tol": 1e-9})
        assert res.status == "optimal"
        assert inst.constraint_residual(res.point.X) <= FEAS_TOL

    def test_complex_instance(self):
        C = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
        inst = LrsdpInstance(C=C, A=[np.eye(2)], b=[1.0], r=1)
        res = solve_lrsdp_relaxation(inst)
        assert res.status == "optimal"
        expected = float(np.min(np.linalg.eigvalsh(C)))
        assert res.objective == pytest.approx(expected, abs=1e-7)

    def test_point_is_psd_and_feasible(self):
        rng = np.random.default_rng(6)
        M = rng.normal(size=(4, 4))
        inst = LrsdpInstance(C=(M + M.T) / 2, A=[np.eye(4)], b=[1.0], r=1)
        res = solve_lrsdp_relaxation(inst)
        assert res.status == "optimal"
        assert res.point.eigenvalues[-1] >= -1e-10
        assert inst.constraint_residual(res.point.X) <= 1e-7

    def test_unbounded_relaxation_has_no_point(self):
        # X = t I meets tr(diag(1, -1) X) = 0 for every t >= 0 at cost -2t
        inst = LrsdpInstance(C=np.diag([-1.0, -1.0]), A=[np.diag([1.0, -1.0])],
                             b=[0.0], r=1)
        res = solve_lrsdp_relaxation(inst)
        assert res.status == "unbounded"
        assert res.point is None


def no_iterate_results():
    """One solve for each way a run can end without an iterate."""
    net, cost, _ = fixed_load_case()
    empty = RadialNetwork(
        buses=(dataclasses.replace(net.buses[0], v_min=1.2, v_max=1.1),
               net.buses[1]), lines=net.lines, root=net.root)
    overload, overload_cost, _ = fixed_load_case(load=10.0 + 0.0j)
    return {
        "empty box": solve_opf_relaxation(empty, cost, {"max_iter": 7}),
        "max_iter": solve_opf_relaxation(overload, overload_cost,
                                         {"max_iter": 100}),
        "infeasible": solve_lrsdp_relaxation(
            LrsdpInstance(C=np.eye(2), A=[np.zeros((2, 2))], b=[1.0], r=1),
            {"max_iter": 7000}),
        "unbounded": solve_lrsdp_relaxation(
            LrsdpInstance(C=-np.eye(2), A=[np.diag([1.0, -1.0])], b=[0.0], r=1),
            {"max_iter": 7000}),
    }


class TestSolveResult:
    def test_a_run_without_an_iterate_leaves_every_value_none(self):
        results = no_iterate_results()
        assert {k: r.status for k, r in results.items()} == {
            "empty box": "infeasible", "max_iter": "max_iter",
            "infeasible": "infeasible", "unbounded": "unbounded"}
        for name, res in results.items():
            values = (res.x, res.s, res.point, res.objective, res.primal_obj,
                      res.dual_obj, res.primal_residual, res.dual_residual,
                      res.gap, res.optimality_residual)
            assert all(v is None for v in values), name
            assert res.options == {**DEFAULT_OPTIONS,
                                   "max_iter": res.options["max_iter"]}, name
        assert [r.options["max_iter"] for r in results.values()] == [
            7, 100, 7000, 7000]

    def test_a_point_exists_exactly_when_an_iterate_does(self):
        net, cost = load_case(os.path.join(CASES, "demo_3bus.json"))
        res = solve_opf_relaxation(net, cost, {"max_iter": 30})
        assert res.status == "max_iter"
        assert res.x is not None and res.point is not None
        assert res.objective == cost.value(res.point.s)
        assert res.gap == abs(res.primal_obj - res.dual_obj)
        inst = LrsdpInstance(C=np.diag([1.0, 2.0]), A=[np.eye(2)], b=[1.0], r=1)
        res = solve_lrsdp_relaxation(inst, {"max_iter": 30})
        assert res.status == "max_iter"
        assert res.s is not None and res.point is not None
