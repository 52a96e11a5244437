"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success; failures surface through
plain assertions.  Criteria 2 and 8 share the two-bus oracle scans through
a module-scoped fixture to stay inside the runtime budgets.
"""

import time

import numpy as np
import pytest

from gen import (
    block_primitive,
    random_feasible_psd,
    random_radial_network,
    random_spectraplex_instance,
    shrinking_path,
    threshold_primitive,
    two_bus_case,
)
from relaxcert.certify import (
    LandscapeGrid,
    brute_force_oracle,
    check_c1_c3,
    classify_local_optima,
    eliminated_opf_grid,
    multistart_local_search,
)
from relaxcert.compose import (
    CertifiedProblem,
    CompositionError,
    intersect_feasible,
    sample_box,
    union_feasible,
)
from relaxcert.core import (
    PathTrace,
    ProblemHandle,
    arc_length_reparameterize,
    norm_m,
    partition_length,
)
from relaxcert.distflow import (
    forward_point,
    residual_X,
    sample_relaxed_points,
    unpack_point,
)
from relaxcert.lrsdp import lyapunov_tail, reduce_rank_path
from relaxcert.restore import (
    cprime_margin,
    cprime_reference,
    edge_deltas,
    restoration_path,
)
from relaxcert.solver import solve_lrsdp_relaxation


def _passline(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def _restoration_instances():
    """Seeded instances and inflated relaxed points for criteria 1 and 3."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_bus = 3 + seed % 8  # 3..10 buses
        net, cost = random_radial_network(rng, n_bus=n_bus)
        x = sample_relaxed_points(net, cost, 1, rng)[0]
        yield seed, net, cost, x


def test_criterion_1_restoration_soundness():
    start = time.time()
    count = 0
    for seed, net, cost, x in _restoration_instances():
        trace = restoration_path(net, x, samples=101)
        end = unpack_point(net, trace.end)
        assert residual_X(net, end) <= 1e-8, f"seed {seed}"

        f_vals = np.array([cost.value(unpack_point(net, p).s)
                           for p in trace.points])
        from relaxcert.restore import lyapunov_V
        v_vals = np.array([lyapunov_V(net, unpack_point(net, p))
                           for p in trace.points])
        assert np.all(np.diff(f_vals) < 0), f"seed {seed}: cost not strict"
        assert np.all(np.diff(v_vals) < 0), f"seed {seed}: V not strict"

        # per-line root identity |S - (d/2)z|^2 - v(ell - d) = 0
        delta, in_M = edge_deltas(net, x)
        for e in range(net.n_line):
            d = delta[e]
            lhs = abs(x.S[e] - 0.5 * d * net.z[e]) ** 2
            rhs = x.v[net.tail_idx[e]] * (x.ell[e] - d)
            scale = max(1.0, abs(rhs))
            assert abs(lhs - rhs) <= 1e-10 * scale, f"seed {seed}, line {e}"
        count += 1
    elapsed = time.time() - start
    assert count == 100
    assert elapsed <= 60, f"runtime {elapsed:.1f}s over budget"
    _passline(1, f"100 restorations sound in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def two_bus_suite():
    """Twenty 2-dof instances with oracle scans at resolution 0.005."""
    suite = []
    start = time.time()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net, cost = two_bus_case(rng)
        grid_problem = eliminated_opf_grid(net, cost)
        oracle = brute_force_oracle(grid_problem, resolution=0.005)
        suite.append((seed, net, cost, grid_problem, oracle))
    return suite, time.time() - start


def test_criterion_2_no_spurious_optima_at_desk_scale(two_bus_suite):
    suite, scan_time = two_bus_suite
    start = time.time()
    for seed, net, cost, grid_problem, oracle in suite:
        assert oracle.label_counts["genuine"] == 0, f"seed {seed}"
        assert oracle.label_counts["pseudo"] == 0, f"seed {seed}"
        out = multistart_local_search(grid_problem, starts=20, seed=seed)
        costs = out.converged_costs
        assert len(costs) == 20, f"seed {seed}: {out.note}"
        bound = max(1e-6, 2 * oracle.resolution * oracle.max_slope)
        worst = float(np.max(np.abs(costs - oracle.global_cost)))
        assert worst <= bound, f"seed {seed}: off by {worst:.3g} > {bound:.3g}"
    elapsed = scan_time + (time.time() - start)
    assert elapsed <= 120, f"runtime {elapsed:.1f}s over budget"
    _passline(2, f"20 instances: no spurious optima, multistart matches "
                 f"oracle in {elapsed:.1f}s")


def test_criterion_3_proportional_decrease_margin():
    for seed, net, cost, x in _restoration_instances():
        trace = restoration_path(net, x, samples=101)
        res = cprime_margin(net, cost, trace)
        analytic = cprime_reference(net, cost)
        assert res.margin > 0, f"seed {seed}"
        assert res.margin >= 0.5 * analytic, (
            f"seed {seed}: margin {res.margin:.3g} < half of {analytic:.3g}")
    _passline(3, "sampled margin dominates half the analytic constant on all "
                 "100 instances")


def test_criterion_4_rank_reduction():
    start = time.time()
    rng = np.random.default_rng(2024)
    for trial in range(50):
        n = 3 + trial % 3  # 3, 4, 5
        inst = random_spectraplex_instance(rng, n=n)
        assert inst.dimension_condition
        X0 = random_feasible_psd(rng, n)  # full rank start
        f0 = inst.cost(X0)
        result = reduce_rank_path(inst, X0, samples_per_stage=101)
        assert result.final.rank() <= 1, f"trial {trial}"
        assert len(result.stages) <= n - 1, f"trial {trial}"
        tails = []
        stage_len = 101
        for i, vec in enumerate(result.trace.points):
            X = vec.reshape(n, n)
            X = (X + X.conj().T) / 2
            assert inst.constraint_residual(X) <= 1e-8, f"trial {trial}"
            assert abs(inst.cost(X) - f0) <= 1e-8 * (1 + abs(f0)), f"trial {trial}"
            assert np.min(np.linalg.eigvalsh(X)) >= -1e-8, f"trial {trial}"
            tails.append(lyapunov_tail(inst, X))
        tails = np.asarray(tails)
        rises = np.diff(tails) - 1e-12 * (1 + np.abs(tails[:-1]))
        assert np.all(rises <= 0), f"trial {trial}: tail sum increased"
    elapsed = time.time() - start
    assert elapsed <= 60, f"runtime {elapsed:.1f}s over budget"
    _passline(4, f"50 reductions conserve cost and constraints in {elapsed:.1f}s")


def test_criterion_5_weak_exactness():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = 3 + trial % 3
        inst = random_spectraplex_instance(rng, n=n, degenerate=trial % 2 == 0)
        res = solve_lrsdp_relaxation(inst)
        assert res.status == "optimal", f"trial {trial}"
        reduction = reduce_rank_path(inst, res.point)
        assert reduction.final.rank() <= inst.r, f"trial {trial}"
        assert abs(inst.cost(reduction.final.X) - res.objective) <= 1e-7, (
            f"trial {trial}")
    _passline(5, "10 relaxation optima reduce to rank <= r at equal cost")


def test_criterion_6_composition_rules():
    # intersection of separable blocks: endpoint clears the summed Lyapunov
    p1, p2 = block_primitive(0), block_primitive(1)
    comp = intersect_feasible(p1, p2, split=([0], [1]))
    rng = np.random.default_rng(0)
    pts = [np.array([complex(a), complex(b)])
           for a, b in rng.uniform(0.05, 1.0, size=(50, 2))]
    for x in pts:
        trace = comp.path_factory(x)
        assert comp.handle.evaluate(trace.end).lyapunov <= 1e-9
    checks = check_c1_c3(comp, pts)
    assert checks.c1.passed

    # union: product zero set matches the pointwise minimum on 200 samples
    q1, q2 = threshold_primitive(0.5), threshold_primitive(0.7)
    union = union_feasible(q1, q2)
    sampled = 0
    for x in sample_box(union.box, 200, seed=1):
        if union.handle.evaluate(x).relaxed > 1e-8:
            continue
        sampled += 1
        assert ((union.handle.evaluate(x).lyapunov <= 1e-9)
                == (min(q1.handle.evaluate(x).lyapunov,
                        q2.handle.evaluate(x).lyapunov) <= 1e-9))
    assert sampled >= 150

    # negative controls
    leaky = ProblemHandle(lambda x: p1.handle.evaluate(x)._replace(
        cost=x[..., 0].real + 0.5 * x[..., 1].real))
    p1_bad = CertifiedProblem(handle=leaky, path_factory=p1.path_factory,
                              segment_bound=1, box=p1.box, label="leaky")
    with pytest.raises(CompositionError):
        intersect_feasible(p1_bad, p2, split=([0], [1]))
    q2_bad = CertifiedProblem(
        handle=q2.handle,
        path_factory=lambda x: shrinking_path(x, np.array([0.5 + 0j])),
        segment_bound=1, box=q2.box, label="divergent")
    with pytest.raises(CompositionError):
        union_feasible(q1, q2_bad)
    _passline(6, "intersection and union composites certified; "
                 "negative controls rejected")


def test_criterion_7_taxonomy_fixture():
    costs = np.array([5, 4, 3, 4, 2, 0, 2, 3, 2, 2, 1.5, 1, 3, 5], dtype=float)
    grid = LandscapeGrid(points=np.arange(len(costs), dtype=float)[:, None],
                         costs=costs, radius=1.5)
    labels = list(classify_local_optima(grid))
    assert labels.count("global") == 1
    assert labels.count("pseudo") == 1
    assert labels.count("genuine") == 2
    _passline(7, "landscape fixture has exactly one global, one pseudo and "
                 "two genuine optima")


def test_criterion_8_connected_feasible_grid(two_bus_suite):
    suite, _ = two_bus_suite
    for seed, _, _, _, oracle in suite:
        assert oracle.n_components == 1, f"seed {seed}"
    _passline(8, "every 2-dof feasible grid is one connected component")


def test_criterion_9_core_numerics():
    rng = np.random.default_rng(0)

    # arc-length reparameterization idempotence at 1e-12
    for _ in range(50):
        verts = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        ts = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 4)), [1.0]])
        tr = PathTrace(params=ts, points=verts, knots=np.arange(6))
        once = arc_length_reparameterize(tr)
        twice = arc_length_reparameterize(once)
        assert np.max(np.abs(twice.params - once.params)) <= 1e-12
        assert np.max(np.abs(twice.points - once.points)) <= 1e-12

    # norm axioms on 1000 random triples
    for _ in range(1000):
        d = int(rng.integers(1, 8))
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        y = rng.normal(size=d) + 1j * rng.normal(size=d)
        alpha = float(rng.normal())
        assert abs(norm_m(alpha * x) - abs(alpha) * norm_m(x)) <= 1e-12 * (
            1 + norm_m(x))
        assert norm_m(x + y) <= norm_m(x) + norm_m(y) + 1e-12
        assert norm_m(x) >= 0

    # partition-length additivity at stored samples
    for _ in range(50):
        verts = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
        tr = PathTrace(params=np.linspace(0, 1, 7), points=verts, knots=np.arange(7))
        total = partition_length(tr)
        for mid in tr.params[1:-1]:
            split = (partition_length(tr, 0.0, mid)
                     + partition_length(tr, mid, 1.0))
            assert abs(split - total) <= 1e-12 * max(1.0, total)
    _passline(9, "reparameterization idempotent, norm axioms and length "
                 "additivity hold")
