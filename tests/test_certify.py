"""Tests for condition checkers, landscape classification, the grid oracle
and multistart search."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph

from gen import (
    random_feasible_psd,
    random_radial_network,
    random_spectraplex_instance,
    two_bus_case,
)
import relaxcert.certify as certify
from relaxcert.certify import (
    ORACLE_DIM_LIMIT,
    CertificateReport,
    ConditionResult,
    DimensionGuardError,
    GridProblem,
    InfeasibleAtResolutionError,
    LandscapeGrid,
    _axis_lengths,
    _jacobian,
    _kkt_residual,
    _refute_local_candidate,
    brute_force_oracle,
    check_c1_c3,
    check_c2_proxy,
    check_exactness,
    classify_local_optima,
    eliminated_opf_grid,
    multistart_local_search,
    psd_slice_grid_problem,
)
from relaxcert.compose import CertifiedProblem
from relaxcert.core import FEAS_TOL, PathTrace, PreconditionError, verify_path
from relaxcert.distflow import load_case, pack_point, residual_X, sample_relaxed_points
from relaxcert.lrsdp import load_instance, lrsdp_certified_problem, reduce_rank_path
from relaxcert.restore import opf_certified_problem
from relaxcert.solver import solve_lrsdp_relaxation, solve_opf_relaxation


CASES = os.path.join(os.path.dirname(__file__), os.pardir, "cases")


def taxonomy_fixture():
    """1-D landscape holding one optimum of every class.

    Unit spacing; plateau of width two at value 2 whose right edge leads
    downhill, two strict non-global minima, one global minimum.
    """
    costs = np.array([5, 4, 3, 4, 2, 0, 2, 3, 2, 2, 1.5, 1, 3, 5], dtype=float)
    points = np.arange(len(costs), dtype=float)[:, None]
    return LandscapeGrid(points=points, costs=costs, radius=1.5)


class TestClassifyLocalOptima:
    def test_isolated_points_are_local_optima(self):
        grid = LandscapeGrid(points=[[0.0], [5.0]], costs=[1.0, 2.0], radius=1.0)
        assert grid.adjacency().shape == (0, 2)
        assert list(classify_local_optima(grid)) == ["global", "genuine"]

    def test_taxonomy_fixture(self):
        labels = classify_local_optima(taxonomy_fixture())
        assert list(labels).count("global") == 1
        assert list(labels).count("pseudo") == 1
        assert list(labels).count("genuine") == 2
        assert labels[5] == "global"
        assert labels[8] == "pseudo"
        assert labels[2] == "genuine" and labels[11] == "genuine"

    def test_convex_quadratic_grid(self):
        xs = np.arange(-1.0, 1.0001, 0.05)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([X.reshape(-1), Y.reshape(-1)], axis=1)
        costs = (pts[:, 0] - 0.3) ** 2 + (pts[:, 1] + 0.2) ** 2
        labels = classify_local_optima(
            LandscapeGrid(points=pts, costs=costs, radius=0.075))
        assert list(labels).count("global") == 1
        assert list(labels).count("pseudo") == 0
        assert list(labels).count("genuine") == 0

    def test_double_well(self):
        xs = np.arange(-1.6, 1.6001, 0.01)
        costs = (xs**2 - 1) ** 2 + 0.2 * xs
        labels = classify_local_optima(
            LandscapeGrid(points=xs[:, None], costs=costs, radius=0.015))
        assert list(labels).count("global") == 1
        assert list(labels).count("genuine") == 1
        g = np.flatnonzero(labels == "global")[0]
        h = np.flatnonzero(labels == "genuine")[0]
        assert xs[g] < 0 < xs[h]  # higher well is the genuine one

    def test_labels_invariant_under_monotone_relabeling(self):
        grid = taxonomy_fixture()
        labels = classify_local_optima(grid)
        relabeled = LandscapeGrid(points=grid.points,
                                  costs=np.exp(grid.costs / 3.0),
                                  radius=grid.radius)
        assert list(classify_local_optima(relabeled)) == list(labels)


def lattice_grid(mask, lower, resolution):
    """Scan-style grid: ``np.arange`` axes from ``lower``, feasible cells of
    ``mask`` in C order, radius 1.5 cells, with and without the lattice."""
    axes = [np.arange(lo, lo + (n - 0.5) * resolution, resolution)
            for lo, n in zip(lower, mask.shape)]
    assert [len(a) for a in axes] == list(mask.shape)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)[mask.reshape(-1)]
    costs = np.zeros(len(pts))
    kd = LandscapeGrid(points=pts, costs=costs, radius=1.5 * resolution)
    return kd, dataclasses.replace(kd, lattice=mask)


def assert_edge_list(pairs, m):
    """``pairs`` is an ``(E, 2)`` edge list of ``m`` points: ``i < j`` in
    every row and no undirected edge twice."""
    assert pairs.ndim == 2 and pairs.shape[1] == 2
    assert np.all(pairs[:, 0] < pairs[:, 1])
    assert np.all((0 <= pairs) & (pairs < m))
    assert len(np.unique(pairs, axis=0)) == len(pairs)


def assert_same_edges(a, b):
    """Equal edge lists up to row order."""
    assert len(a) == len(b)
    np.testing.assert_array_equal(a[np.lexsort(a.T[::-1])], b[np.lexsort(b.T[::-1])])


class TestLatticeAdjacency:
    SHAPES = {1: (257,), 2: (23, 31), 3: (9, 11, 7), 4: (5, 6, 4, 7)}

    @pytest.mark.parametrize("resolution", [0.0057, 0.04, 0.3])
    @pytest.mark.parametrize("dim", range(1, ORACLE_DIM_LIMIT + 1))
    def test_stencil_matches_kd_tree(self, dim, resolution):
        rng = np.random.default_rng([dim, int(resolution * 1e4)])
        lower = rng.uniform(-1.3, 0.4, dim)  # uneven bounds, off the lattice
        for density in (0.2, 0.6, 0.95):
            mask = rng.random(self.SHAPES[dim]) < density
            kd, lattice = lattice_grid(mask, lower, resolution)
            for grid in (kd, lattice):
                assert_edge_list(grid.adjacency(), len(grid.points))
            assert_same_edges(lattice.adjacency(), kd.adjacency())

    def test_sqrt3_corner_is_not_a_neighbor(self):
        mask = np.zeros((2, 2, 2), dtype=bool)
        mask[0, 0, 0] = mask[1, 1, 1] = True
        kd, lattice = lattice_grid(mask, [0.1, -0.7, 0.3], 0.04)
        assert len(kd.adjacency()) == 0
        assert len(lattice.adjacency()) == 0
        # one face-diagonal step further is a neighbor
        mask[1, 1, 0] = True
        kd, lattice = lattice_grid(mask, [0.1, -0.7, 0.3], 0.04)
        assert_same_edges(lattice.adjacency(), kd.adjacency())
        assert len(lattice.adjacency()) == 2

    def test_lattice_must_hold_one_cell_per_point(self):
        kd, _ = lattice_grid(np.ones((3, 3), dtype=bool), [0.0, 0.0], 0.1)
        with pytest.raises(ValueError, match="lattice"):
            dataclasses.replace(kd, lattice=np.ones((3, 2), dtype=bool))
        with pytest.raises(ValueError, match="lattice"):
            dataclasses.replace(kd, lattice=np.ones(9, dtype=bool))


class TestCheckC1C3:
    def test_opf_paths_pass_strict(self):
        rng = np.random.default_rng(0)
        net, cost = random_radial_network(rng, n_bus=3)
        problem = opf_certified_problem(net, cost)
        pts = [pack_point(x) for x in sample_relaxed_points(net, cost, 50, rng)]
        checks = check_c1_c3(problem, pts)
        assert checks.c3.passed and checks.c1.passed
        assert len(checks.traces) == 50
        proxy = check_c2_proxy(problem, checks.traces)
        assert proxy.passed

    def test_broken_factory_fails_both(self):
        rng = np.random.default_rng(1)
        net, cost = random_radial_network(rng, n_bus=3)
        good = opf_certified_problem(net, cost)

        def constant_path(x):
            pts = np.tile(x, (5, 1))
            return PathTrace(params=np.linspace(0, 1, 5), points=pts, knots=[0, 4])

        broken = CertifiedProblem(handle=good.handle, path_factory=constant_path,
                                  segment_bound=1, box=good.box, label="broken")
        pts = [pack_point(x) for x in sample_relaxed_points(net, cost, 5, rng)]
        checks = check_c1_c3(broken, pts)
        assert not checks.c3.passed and not checks.c1.passed
        assert any("endpoint infeasible" in w for w in checks.c3.witnesses)

    def test_lrsdp_paths_pass_weak_only(self):
        rng = np.random.default_rng(2)
        inst = random_spectraplex_instance(rng, n=3)
        problem = lrsdp_certified_problem(inst)
        pts = [random_feasible_psd(rng, 3).reshape(-1).astype(complex)
               for _ in range(5)]
        checks = check_c1_c3(problem, pts)
        assert checks.c3.passed
        assert not checks.c1.passed  # rank reduction conserves the cost

    def test_points_outside_region_rejected(self):
        rng = np.random.default_rng(3)
        net, cost = random_radial_network(rng, n_bus=3)
        problem = opf_certified_problem(net, cost)
        from relaxcert.distflow import forward_point
        feasible = forward_point(net, 1.0, np.full(net.n_line, 0.1 + 0.05j))
        with pytest.raises(PreconditionError):
            check_c1_c3(problem, [pack_point(feasible)])


class TestCheckExactness:
    def test_opf_feasible_optimum_weak_without_uniqueness(self):
        rng = np.random.default_rng(4)
        net, cost = two_bus_case(rng)
        res = solve_opf_relaxation(net, cost)
        assert res.status == "optimal"
        verdict = check_exactness(res.optimality_residual,
                                  residual_X(net, res.point))
        assert verdict.verdict == "weak"

    def test_uniqueness_certificate_upgrades_to_strong(self):
        rng = np.random.default_rng(5)
        net, cost = two_bus_case(rng)
        res = solve_opf_relaxation(net, cost)
        verdict = check_exactness(res.optimality_residual,
                                  residual_X(net, res.point),
                                  unique_certificate=True)
        assert verdict.verdict == "strong"

    def test_lrsdp_rank_deficient_optimum_weak_via_path(self):
        rng = np.random.default_rng(6)
        inst = random_spectraplex_instance(rng, n=4, degenerate=True)  # C = I
        X = random_feasible_psd(rng, 4)  # full-rank optimum of the relaxation
        problem = lrsdp_certified_problem(inst)
        x = X.reshape(-1).astype(complex)
        check = verify_path(problem.handle, x, problem.path_factory(x))
        verdict = check_exactness(0.0, problem.handle.evaluate(x).feasible, check)
        assert verdict.verdict == "weak"
        assert "equal cost" in verdict.note

    def test_non_optimal_point_rejected(self):
        rng = np.random.default_rng(7)
        net, cost = two_bus_case(rng)
        res = solve_opf_relaxation(net, cost)
        with pytest.raises(PreconditionError):
            check_exactness(1e-3, residual_X(net, res.point))

    def test_infeasible_optimum_without_check_rejected(self):
        rng = np.random.default_rng(6)
        inst = random_spectraplex_instance(rng, n=4, degenerate=True)
        x = random_feasible_psd(rng, 4).reshape(-1).astype(complex)
        residual = lrsdp_certified_problem(inst).handle.evaluate(x).feasible
        assert residual > FEAS_TOL
        with pytest.raises(PreconditionError, match="no path check"):
            check_exactness(0.0, residual)


class TestReportInvariants:
    def test_inconsistent_implications_rejected(self):
        ok = ConditionResult("c", True, 1.0)
        bad = ConditionResult("c", False, -1.0)
        with pytest.raises(ValueError):
            CertificateReport(c1=ok, c2_proxy=None, c3=bad, cprime=None,
                              exactness="unknown", sample_count=0, seed=0)
        with pytest.raises(ValueError):
            CertificateReport(c1=bad, c2_proxy=None, c3=bad, cprime=ok,
                              exactness="unknown", sample_count=0, seed=0)

    def test_valid_report_serializes(self):
        ok = ConditionResult("c", True, 1.0)
        rep = CertificateReport(c1=ok, c2_proxy=ok, c3=ok, cprime=ok,
                                exactness="weak", sample_count=10, seed=0,
                                tolerances={"membership": 1e-8})
        data = rep.as_dict()
        assert data["exactness"] == "weak"
        assert data["conditions"]["c1"]["passed"] is True
        assert rep.all_passed


class TestBruteForceOracle:
    def test_two_bus_matches_relaxation_and_restoration(self):
        rng = np.random.default_rng(8)
        net, cost = two_bus_case(rng)
        gp = eliminated_opf_grid(net, cost)
        oracle = brute_force_oracle(gp, resolution=0.005)
        res = solve_opf_relaxation(net, cost)
        problem = opf_certified_problem(net, cost)
        if residual_X(net, res.point) <= 1e-8:
            restored_cost = res.objective
        else:
            trace = problem.path_factory(pack_point(res.point))
            restored_cost = problem.handle.evaluate(trace.end).cost
        bound = max(1e-6, 2 * oracle.resolution * oracle.max_slope)
        assert abs(oracle.global_cost - restored_cost) <= bound
        assert oracle.label_counts["genuine"] == 0
        assert oracle.n_components == 1

    def test_unbounded_injections_scan_like_a_slack_finite_box(self):
        import dataclasses
        from relaxcert.distflow import RadialNetwork
        rng = np.random.default_rng(8)
        net, cost = two_bus_case(rng)
        boxed = RadialNetwork(
            buses=tuple(dataclasses.replace(b, s_min=complex(-1e4, -1e4))
                        for b in net.buses),
            lines=net.lines, root=net.root)
        free_gp = eliminated_opf_grid(net, cost)
        boxed_gp = eliminated_opf_grid(boxed, cost)
        u = free_gp.lower
        # two lower-bound rows per bus fewer
        assert len(free_gp.model(*u)[1]) == len(boxed_gp.model(*u)[1]) - 4
        free = brute_force_oracle(free_gp, resolution=0.02)
        boxed_scan = brute_force_oracle(boxed_gp, resolution=0.02)
        np.testing.assert_array_equal(free.points, boxed_scan.points)
        np.testing.assert_array_equal(free.labels, boxed_scan.labels)
        assert free.global_cost == boxed_scan.global_cost

    def test_empty_feasible_grid(self):
        # bus 1's box lies above every voltage the line can reach from the
        # pinned root at 1.0, so the box is ordered but the grid is empty
        rng = np.random.default_rng(9)
        net, cost = two_bus_case(rng)
        import dataclasses
        buses = (net.buses[0],
                 dataclasses.replace(net.buses[1], v_min=1.2, v_max=1.3))
        from relaxcert.distflow import RadialNetwork
        bad_net = RadialNetwork(buses=buses, lines=net.lines, root=net.root)
        gp = eliminated_opf_grid(bad_net, cost)
        with pytest.raises(InfeasibleAtResolutionError):
            brute_force_oracle(gp, resolution=0.05)

    @pytest.mark.parametrize("bus, line, message", [
        ({"v_min": 1.3, "v_max": 1.2}, {}, "bus 1: v_min 1.3 > v_max 1.2"),
        ({"s_min": complex(3.0, 0.0)}, {}, "bus 1: s_min > s_max"),
        ({}, {"l_max": -1.0}, "line 0->1: l_max -1 < 0"),
    ], ids=["voltage", "injection", "current"])
    def test_empty_box_is_named_before_the_model(self, bus, line, message):
        # an empty box is an input fault, not a resolution one; the current
        # box is checked before its square root is taken
        from relaxcert.distflow import RadialNetwork
        net, cost = two_bus_case(np.random.default_rng(9))
        bad_net = RadialNetwork(
            buses=(net.buses[0], dataclasses.replace(net.buses[1], **bus)),
            lines=(dataclasses.replace(net.lines[0], **line),), root=net.root)
        with pytest.raises(PreconditionError) as info:
            eliminated_opf_grid(bad_net, cost)
        assert str(info.value) == message

    def test_dimension_guard(self):
        rng = np.random.default_rng(10)
        net, cost = random_radial_network(rng, n_bus=4)  # 3 lines -> 6 dof
        gp = eliminated_opf_grid(net, cost)
        with pytest.raises(DimensionGuardError):
            brute_force_oracle(gp, resolution=0.1)

    def test_psd_slice_scan_keeps_the_scan_only_row(self):
        # without x01^2 <= x00 x11 the band and the refutation both widen
        gp = psd_slice_grid_problem(load_instance(os.path.join(CASES, "demo_lrsdp.json")))
        data = brute_force_oracle(gp, 0.04).as_dict()
        assert data["feasible_points"] == 3350
        assert data["label_counts"] == {"none": 3333, "global": 1, "pseudo": 16,
                                        "genuine": 0}
        assert data["artifacts_refuted"] == 4

    def test_scan_memory_is_bounded_by_its_slabs(self):
        # 2,868^2 = 8.2M cells, 23,225 feasible: the constraints evaluated on
        # the whole point box at once peaked at about 1.5 GiB
        gp = shipped_grid_problem("bad_current_limit")
        tracemalloc.start()
        try:
            oracle = brute_force_oracle(gp, resolution=0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(oracle.points) == 23225
        assert peak < 64 * 2**20

    def test_lrsdp_slice_matches_reduction(self):
        rng = np.random.default_rng(11)
        inst = random_spectraplex_instance(rng, n=2)
        res = solve_lrsdp_relaxation(inst)
        reduction = reduce_rank_path(inst, res.point)
        reduced_cost = inst.cost(reduction.final.X)
        gp = psd_slice_grid_problem(inst)
        oracle = brute_force_oracle(gp, resolution=0.02)
        bound = 5 * oracle.resolution * (1.0 + oracle.max_slope)
        assert abs(oracle.global_cost - reduced_cost) <= bound


def shipped_grid_problem(name):
    """The grid problem ``relaxcert oracle`` scans for a shipped case."""
    path = os.path.join(CASES, name + ".json")
    if name == "demo_lrsdp":
        return psd_slice_grid_problem(load_instance(path))
    return eliminated_opf_grid(*load_case(path))


def scan_problem(name):
    """A shipped case, or ``two_bus_case-<seed>``: a :func:`gen.two_bus_case`
    feeder, whose box bounds put the scan axes off any round spacing."""
    if name.startswith("two_bus_case-"):
        rng = np.random.default_rng(int(name.split("-")[1]))
        return eliminated_opf_grid(*two_bus_case(rng))
    return shipped_grid_problem(name)


def kd_tree_references(oracle):
    """The scan's labels before refutation, its component count and its
    slope bound, each from the KD-tree graph of its points and without the
    lattice sweep: :func:`classify_local_optima` on the grid without its
    lattice, csgraph components of the KD-tree edges, and the largest slope
    over both directions of every edge."""
    grid = LandscapeGrid(oracle.points, oracle.costs, 1.5 * oracle.resolution)
    labels = classify_local_optima(grid)
    edges = grid.adjacency()
    n_comp, _ = scipy.sparse.csgraph.connected_components(
        scipy.sparse.coo_matrix((np.ones(len(edges)), tuple(edges.T)),
                                shape=(len(grid.points),) * 2), directed=False)
    row, col = np.concatenate([edges, edges[:, ::-1]]).T
    pts, costs = oracle.points, oracle.costs
    both = (np.abs(costs[row] - costs[col])
            / np.linalg.norm(pts[row] - pts[col], axis=1))
    return labels, n_comp, float(both.max(initial=0.0))


def assert_matches_kd_tree(oracle, labels, n_comp, max_slope):
    """The scan's labels are the KD-tree labels with exactly the refuted
    candidates turned to ``none``; components and slope bound are equal."""
    refuted = oracle.labels != labels
    assert np.count_nonzero(refuted) == oracle.artifacts_refuted
    assert set(oracle.labels[refuted]) <= {"none"}
    assert set(labels[refuted]) <= {"pseudo", "genuine"}
    assert oracle.n_components == n_comp
    assert oracle.max_slope == max_slope


class TestOracleLattice:
    @pytest.mark.parametrize("name, resolution", [
        ("demo_2bus", 0.01), ("demo_lrsdp", 0.04), ("demo_lrsdp", 0.02),
        ("demo_lrsdp", 0.05), ("bad_current_limit", 0.02),
        ("two_bus_case-8", 0.0057), ("two_bus_case-21", 0.0057)])
    def test_lattice_oracle_matches_kd_tree_oracle(self, monkeypatch, name, resolution):
        gp = scan_problem(name)
        oracle = brute_force_oracle(gp, resolution)
        lattice_adjacency = LandscapeGrid.adjacency
        with monkeypatch.context() as patch:  # the scan's graph from the KD-tree
            patch.setattr(LandscapeGrid, "adjacency", lambda grid: lattice_adjacency(
                dataclasses.replace(grid, lattice=None)))
            reference = brute_force_oracle(gp, resolution)
        np.testing.assert_array_equal(oracle.points, reference.points)
        np.testing.assert_array_equal(oracle.labels, reference.labels)
        assert oracle.label_counts == reference.label_counts
        assert oracle.n_components == reference.n_components
        assert oracle.max_slope == reference.max_slope
        # the labels and the slope bound come from the stencil sweep, which
        # the patch above does not reach: compare with the KD-tree as well
        assert_matches_kd_tree(oracle, *kd_tree_references(oracle))
        # the lattice route of classify_local_optima on the scan's own mask
        cells = np.rint((oracle.points - gp.lower) / resolution).astype(int)
        mask = np.zeros(_axis_lengths(gp, resolution), dtype=bool)
        mask[tuple(cells.T)] = True
        lattice = LandscapeGrid(oracle.points, oracle.costs, 1.5 * resolution,
                                lattice=mask)
        np.testing.assert_array_equal(
            classify_local_optima(lattice),
            classify_local_optima(dataclasses.replace(lattice, lattice=None)))

    @pytest.mark.parametrize("resolution", [0.0057, 0.01, 0.04])
    @pytest.mark.parametrize("name", ["demo_2bus", "demo_3bus", "bad_current_limit",
                                      "demo_lrsdp"])
    def test_axis_lengths_match_arange(self, name, resolution):
        gp = shipped_grid_problem(name)
        expected = [len(np.arange(gp.lower[i], gp.upper[i] + resolution / 2, resolution))
                    for i in range(gp.dim)]
        assert _axis_lengths(gp, resolution) == expected

    def test_overflowing_axis_is_rejected_before_allocation(self):
        gp = shipped_grid_problem("demo_2bus")
        assert _axis_lengths(gp, 5e-324) == [np.inf, np.inf]
        with pytest.raises(DimensionGuardError, match="scan budget"):
            brute_force_oracle(gp, 5e-324)


def box_problem(dim, cost, inequalities=lambda *u: ()):
    """Scan model on [0, 8]^dim, whose unit-resolution lattice is the
    integer points, with the cost ``cost(*u)``; no equalities, and no
    inequalities unless given (``inequalities(*u)``, a tuple)."""
    return GridProblem(dim=dim, lower=np.zeros(dim), upper=np.full(dim, 8.0),
                       model=lambda *u: (cost(*u), inequalities(*u), ()))


def sq(u, c):
    """Squared distance of the point with coordinates ``u`` from ``c``."""
    return sum((x - ci) ** 2 for x, ci in zip(u, c))


class TestLatticeScanEdgeCases:
    """Small lattices where every label class, an isolated point and an
    offset with no feasible pair occur; each scan must agree with the
    KD-tree references and refute nothing."""

    @staticmethod
    def scan(problem):
        oracle = brute_force_oracle(problem, resolution=1.0)
        assert oracle.artifacts_refuted == 0
        labels, n_comp, max_slope = kd_tree_references(oracle)
        np.testing.assert_array_equal(oracle.labels, labels)
        assert_matches_kd_tree(oracle, labels, n_comp, max_slope)
        return oracle

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_single_feasible_point(self, dim):
        oracle = self.scan(box_problem(
            dim, lambda *u: sum(u), lambda *u: (sq(u, np.full(dim, 3.0)) - 0.09,)))
        assert len(oracle.points) == 1
        assert oracle.max_slope == 0.0
        assert oracle.n_components == 1
        assert list(oracle.labels) == ["global"]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_plateau_touching_a_descent_is_pseudo(self, dim):
        # cost 2 for u0 <= 3, then falling to its minimum at u0 = 8: the
        # plateau's u0 = 3 face has a cheaper neighbor
        oracle = self.scan(box_problem(dim, lambda *u: np.minimum(2.0, 5.5 - u[0])))
        u0 = oracle.points[:, 0]
        assert np.all(oracle.labels[u0 <= 2] == "pseudo")
        assert np.all(oracle.labels[(u0 >= 3) & (u0 <= 7)] == "none")
        assert np.all(oracle.labels[u0 == 8] == "global")
        assert oracle.n_components == 1

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_isolated_basin_is_genuine(self, dim):
        a, b = np.full(dim, 1.0), np.full(dim, 6.0)
        # one lattice point in a ball around a, a bowl of cost 1 at its
        # center; the global minimum at b, in a ball of radius 1.5
        oracle = self.scan(box_problem(
            dim, lambda *u: np.minimum(sq(u, a) + 1.0, sq(u, b)),
            lambda *u: (np.minimum(sq(u, a) - 0.25, sq(u, b) - 2.25),)))
        assert oracle.n_components == 2
        genuine = oracle.points[oracle.labels == "genuine"]
        np.testing.assert_array_equal(genuine, a[None, :])
        np.testing.assert_array_equal(oracle.global_points, b[None, :])
        assert oracle.label_counts["pseudo"] == 0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_line_without_diagonal_pairs(self, dim):
        # the feasible set is the u0 axis through (., 4, 4): the diagonal
        # offsets of the stencil join no two feasible cells
        oracle = self.scan(box_problem(
            dim, lambda *u: (u[0] - 5.0) ** 2,
            lambda *u: tuple(np.abs(x - 4.0) - 0.25 for x in u[1:])))
        assert len(oracle.points) == 9
        assert oracle.n_components == 1
        assert oracle.max_slope == 9.0  # between u0 = 0 and u0 = 1
        assert oracle.label_counts == {"none": 8, "global": 1, "pseudo": 0,
                                       "genuine": 0}


class TestMultistart:
    def test_double_well_finds_both_minima(self):
        def model(x):
            return (x**2 - 1) ** 2 + 0.2 * x, (), ()

        gp = GridProblem(dim=1, lower=np.array([-1.6]), upper=np.array([1.6]),
                         model=model)
        out = multistart_local_search(gp, starts=8, seed=0)
        conv = [r for r in out.runs if r.converged]
        assert conv
        xs = sorted(r.point[0] for r in conv)
        assert xs[0] < -0.9 and xs[-1] > 0.9  # both wells reached
        costs = sorted(set(np.round([r.cost for r in conv], 6)))
        assert len(costs) == 2

    def test_three_bus_against_relaxation_and_oracle(self):
        rng = np.random.default_rng(12)
        net, cost = random_radial_network(rng, n_bus=3, pin_root_voltage=True)
        res = solve_opf_relaxation(net, cost)
        assert res.status == "optimal"
        gp = eliminated_opf_grid(net, cost)
        out = multistart_local_search(gp, starts=20, seed=0)
        costs = out.converged_costs
        assert len(costs) >= 15
        # exactness regime: the relaxation optimum is the global optimum
        assert np.all(np.abs(costs - res.objective) <= 1e-6 * (1 + abs(res.objective)))
        oracle = brute_force_oracle(gp, resolution=0.1)
        bound = max(1e-6, 2 * oracle.resolution * oracle.max_slope)
        assert np.all(np.abs(costs - oracle.global_cost) <= bound)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(13)
        net, cost = two_bus_case(rng)
        for gp in (eliminated_opf_grid(net, cost), shipped_grid_problem("demo_lrsdp")):
            a = multistart_local_search(gp, starts=5, seed=3)
            b = multistart_local_search(gp, starts=5, seed=3)
            assert len(a.runs) == len(b.runs) == 5
            for ra, rb in zip(a.runs, b.runs):
                assert np.array_equal(ra.point, rb.point)
                assert ra.cost == rb.cost
                assert ra.iterations == rb.iterations

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_psd_slice_reaches_the_optimum(self, seed):
        gp = shipped_grid_problem("demo_lrsdp")
        out = multistart_local_search(gp, starts=20, seed=seed)
        assert len(out.runs) == 20
        assert all(r.converged and abs(r.cost - 1.0) <= 1e-6 for r in out.runs)

    def test_starts_are_projected_onto_an_equality(self):
        # the unit circle in [-2, 2]^2: a Sobol point lies on it with
        # probability zero, so every start must be projected
        gp = GridProblem(
            dim=2, lower=np.full(2, -2.0), upper=np.full(2, 2.0),
            model=lambda x, y: (x, (), (x**2 + y**2 - 1.0,)))
        out = multistart_local_search(gp, starts=8, seed=0)
        assert len(out.runs) == 8 and out.note == ""
        assert all(r.converged and abs(r.cost + 1.0) <= 1e-6 for r in out.runs)


def recorded(gp):
    """``gp`` with a call recorder around its model, and the recorded calls,
    each the coordinates it was given as one float array: ``(dim,)`` for one
    point, ``(dim, 2 * dim)`` for the columns of a :func:`_jacobian` call."""
    calls = []

    def model(*u):
        calls.append(np.array(u, dtype=float))
        return gp.model(*u)

    return dataclasses.replace(gp, model=model), calls


def scan_candidates(monkeypatch, gp, resolution):
    """The arguments of every refutation the scan of ``gp`` at
    ``resolution`` asks for, with no candidate refuted."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(certify, "_refute_local_candidate",
                      lambda *args, **kwargs: seen.append((args, kwargs)) or False)
        brute_force_oracle(gp, resolution)
    return seen


def unmemoized_slsqp_model(problem, u):
    """``_slsqp_model`` without its memo: every closure evaluates the model
    or :func:`_jacobian` at its point itself."""
    values, jac = problem.at, lambda w: _jacobian(problem, w)
    _, ineqs, eqs = values(u)
    cons = []
    if ineqs:
        cons.append({"type": "ineq", "fun": lambda w: -np.array(values(w)[1]),
                     "jac": lambda w: -jac(w)[1]})
    if eqs:
        cons.append({"type": "eq", "fun": lambda w: np.array(values(w)[2]),
                     "jac": lambda w: jac(w)[2]})
    return values, jac, (lambda w: float(values(w)[0]), lambda w: jac(w)[0], cons)


class TestSlsqpMemo:
    """SLSQP's cost, constraint and Jacobian closures and the checks after
    a solve share one model evaluation and one :func:`_jacobian` per point."""

    @pytest.mark.parametrize("name, resolution", [
        ("demo_lrsdp", 0.04), ("two_bus_case-8", 0.04)])
    def test_one_evaluation_per_point(self, monkeypatch, name, resolution):
        gp = scan_problem(name)
        (_, u, cost_u), kwargs = scan_candidates(monkeypatch, gp, resolution)[0]
        refute_gp, refute_calls = recorded(gp)
        _refute_local_candidate(refute_gp, u, cost_u, **kwargs)
        search_gp, search_calls = recorded(gp)
        assert len(multistart_local_search(search_gp, starts=4).runs) == 4
        for calls in (refute_calls, search_calls):
            for shape in ((gp.dim, 2 * gp.dim), (gp.dim,)):
                points = [c.tobytes() for c in calls if c.shape == shape]
                assert len(points) >= 4
                assert all(a != b for a, b in zip(points, points[1:]))

    @pytest.mark.parametrize("name, resolution", [
        ("demo_lrsdp", 0.04), ("demo_lrsdp", 0.05), ("bad_current_limit", 0.02),
        ("two_bus_case-8", 0.0057)])
    def test_oracle_matches_unmemoized_closures(self, monkeypatch, name, resolution):
        gp = scan_problem(name)
        oracle = brute_force_oracle(gp, resolution)
        with monkeypatch.context() as patch:
            patch.setattr(certify, "_slsqp_model", unmemoized_slsqp_model)
            reference = brute_force_oracle(gp, resolution)
        counts = oracle.label_counts  # candidates went through the refutation
        assert oracle.artifacts_refuted + counts["pseudo"] + counts["genuine"] > 0
        assert oracle.as_dict() == reference.as_dict()
        np.testing.assert_array_equal(oracle.labels, reference.labels)

    @pytest.mark.parametrize("name, seed", [
        ("demo_lrsdp", 0), ("demo_lrsdp", 1), ("demo_lrsdp", 2),
        ("two_bus_case-8", 3)])
    def test_multistart_matches_unmemoized_closures(self, monkeypatch, name, seed):
        gp = scan_problem(name)
        runs = multistart_local_search(gp, starts=20, seed=seed).runs
        with monkeypatch.context() as patch:
            patch.setattr(certify, "_slsqp_model", unmemoized_slsqp_model)
            reference = multistart_local_search(gp, starts=20, seed=seed).runs
        assert len(runs) == len(reference) == 20
        for run, ref in zip(runs, reference):
            assert run.point.tobytes() == ref.point.tobytes()
            assert np.float64(run.cost).tobytes() == np.float64(ref.cost).tobytes()
            assert (np.float64(run.first_order_residual).tobytes()
                    == np.float64(ref.first_order_residual).tobytes())
            assert run.converged == ref.converged
            assert run.iterations == ref.iterations


def per_coordinate_jacobian(model, u):
    """Central differences one coordinate at a time, each side its own
    one-point call, with the step ``1e-6 * max(1, |u_i|)``: the cost
    gradient as one row, then the inequality and equality Jacobians."""
    def values(point):
        cost, ineqs, eqs = model(*point)
        return [np.array([cost], dtype=float), np.array(ineqs, dtype=float),
                np.array(eqs, dtype=float)]

    cols = []
    for i in range(len(u)):
        step = 1e-6 * max(1.0, abs(u[i]))
        up, dn = u.copy(), u.copy()
        up[i] += step
        dn[i] -= step
        cols.append([(a - b) / (2 * step) for a, b in zip(values(up), values(dn))])
    return [np.stack(parts, axis=-1) for parts in zip(*cols)]


class TestDerivatives:
    @pytest.mark.parametrize("model", ["two-bus", "two-bus-free-root", "psd-slice"])
    def test_stacked_jacobian_matches_per_coordinate(self, model):
        rng = np.random.default_rng(21)
        if model == "psd-slice":
            gp = psd_slice_grid_problem(random_spectraplex_instance(rng, n=2))
        else:
            gp = eliminated_opf_grid(*two_bus_case(rng, pin_root=model == "two-bus"))
        points = gp.lower + rng.random((100, gp.dim)) * (gp.upper - gp.lower)
        rows = 0
        for u in points:
            grad, ineq, eq = _jacobian(gp, u)
            for ref, jac in zip(per_coordinate_jacobian(gp.model, u),
                                (grad[None, :], ineq, eq)):
                assert jac.shape == ref.shape == (ref.shape[0], gp.dim)
                assert np.all(np.abs(jac - ref) <= 1e-9 * (1 + np.abs(ref)))
                rows += len(ref)
        assert rows >= 100 * 3

    @pytest.mark.parametrize("model", ["demo_2bus", "demo_3bus", "bad_current_limit",
                                       "demo_lrsdp", "two-bus-free-root"])
    def test_one_point_floats_match_a_one_row_stack(self, model):
        # squares are x * x (a float's ** calls pow), and one point's OPF
        # cost is sp @ cp on an (n,) vector, which numpy computes as the
        # dot it takes for a one-row (1, n) stack
        rng = np.random.default_rng(22)
        if model == "two-bus-free-root":
            gp = eliminated_opf_grid(*two_bus_case(rng, pin_root=False))
        else:
            gp = shipped_grid_problem(model)

        def bits(values, row=()):
            cost, ineqs, eqs = values
            flat = [np.asarray(v)[row] for v in (cost, *ineqs, *eqs)]
            return np.array(flat).view(np.uint64)

        points = gp.lower + rng.random((2000, gp.dim)) * (gp.upper - gp.lower)
        for u in points:
            np.testing.assert_array_equal(bits(gp.at(u)),
                                          bits(gp.model(*u[:, None]), row=0))

    @staticmethod
    def kkt_problem():
        """Cost u0 + 3 u1 + (u2 - 1)^2 on the box u0 >= 0, with 1 - u1 u2 <= 0
        and u2 = u1^2.  At (0, 1, 1) the bound, the inequality and the
        equality are active, and unit multipliers make it a KKT point."""
        return GridProblem(
            dim=3, lower=np.array([0.0, -5.0, -5.0]), upper=np.full(3, 5.0),
            model=lambda u0, u1, u2: (u0 + 3 * u1 + (u2 - 1) ** 2,
                                      (1 - u1 * u2,), (u2 - u1 ** 2,)))

    @staticmethod
    def kkt_residual(gp, u):
        return _kkt_residual(gp, u, gp.at(u), _jacobian(gp, u))

    def test_kkt_residual_vanishes_at_the_kkt_point(self):
        assert self.kkt_residual(self.kkt_problem(), np.array([0.0, 1.0, 1.0])) <= 1e-8

    def test_kkt_residual_flags_a_feasible_non_stationary_point(self):
        gp = self.kkt_problem()
        u = np.array([1.0, 2.0, 4.0])  # feasible; only the equality is active
        assert gp.feasibility_residual(u, 0.0, gp.at(u)) <= 0.0
        assert self.kkt_residual(gp, u) > 1e-3
