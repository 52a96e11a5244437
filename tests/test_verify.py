"""Tests for the batch contract of problem handles and for the path verifier
behind the monotone-path conditions."""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

import relaxcert.core as core
import relaxcert.distflow as distflow
import relaxcert.restore as restore
from gen import (
    bend_reductions,
    bend_restorations,
    block_primitive,
    box_handle,
    random_feasible_psd,
    random_radial_network,
    random_spectraplex_instance,
    threshold_primitive,
)
from relaxcert.certify import check_c1_c3
from relaxcert.cli import main
from relaxcert.compose import (
    CertifiedProblem,
    compose_cost,
    intersect_feasible,
    sample_box,
    union_feasible,
)
from relaxcert.core import HandleValues, PathTrace, ProblemHandle
from relaxcert.distflow import pack_point, sample_relaxed_points
from relaxcert.lrsdp import instance_to_dict, lrsdp_certified_problem, reduce_rank_path
from relaxcert.restore import opf_certified_problem

CASES = os.path.join(os.path.dirname(__file__), os.pardir, "cases")


def assert_rowwise(handle, pts):
    """One evaluation maps the (K, d) matrix to the K single-point values
    of each quantity, bit for bit, and a (2, K/2, d) stack to the same
    values reshaped."""
    batch = handle.evaluate(pts)
    single = [handle.evaluate(p) for p in pts]
    half = 2 * (len(pts) // 2)
    stacked = handle.evaluate(pts[:half].reshape(2, half // 2, -1))
    for name in HandleValues._fields:
        values = getattr(batch, name)
        assert values.shape == (len(pts),), name
        assert values.tobytes() == np.array([getattr(v, name) for v in single]).tobytes(), name
        assert getattr(stacked, name).tobytes() == values[:half].tobytes(), name


class TestBatchContract:
    def test_opf_handle(self):
        rng = np.random.default_rng(0)
        net, cost = random_radial_network(rng, n_bus=6, finite_s_box=True)
        problem = opf_certified_problem(net, cost)
        relaxed = [pack_point(x) for x in sample_relaxed_points(net, cost, 6, rng)]
        path = problem.path_factory(relaxed[0]).points
        assert_rowwise(problem.handle, np.concatenate([np.array(relaxed), path]))

    def test_lrsdp_handle(self):
        rng = np.random.default_rng(1)
        inst = random_spectraplex_instance(rng, n=4)
        problem = lrsdp_certified_problem(inst)
        trace = reduce_rank_path(inst, random_feasible_psd(rng, 4)).trace
        assert_rowwise(problem.handle, trace.points[::7])

    def test_union_handle(self):
        union = union_feasible(threshold_primitive(0.5), threshold_primitive(0.7))
        assert_rowwise(union.handle, sample_box(union.box, 40, seed=2))

    def test_union_max_cost(self):
        union = union_feasible(threshold_primitive(0.5), threshold_primitive(0.7),
                               mode="max")
        assert_rowwise(union.handle, sample_box(union.box, 40, seed=3))

    def test_intersect_handle(self):
        comp = intersect_feasible(block_primitive(0), block_primitive(1),
                                  split=([0], [1]))
        assert_rowwise(comp.handle, sample_box(comp.box, 40, seed=4))

    def test_compose_cost_handle(self):
        comp = compose_cost(threshold_primitive(0.5), lambda y: y * y + 0.5 * y)
        assert_rowwise(comp.handle, sample_box(comp.box, 40, seed=5))


# --- one witness per verifier condition ----------------------------------------
#
# On the unit square, the cost is Re x0 and the Lyapunov value Re x1; the
# feasible set is the edge x1 = 0.  Each hand-built path from (0.5, 0.5)
# breaks exactly one condition.

START = np.array([0.5, 0.5], dtype=complex)


def square_problem(knots, lyapunov=lambda x: x[..., 1].real):
    def path(x):
        pts = np.array(knots, dtype=complex)
        return PathTrace(params=np.linspace(0.0, 1.0, len(pts)), points=pts,
                         knots=np.arange(len(pts)))

    handle = box_handle(lambda x: x[..., 0].real, lambda x: x[..., 1].real, lyapunov)
    return CertifiedProblem(handle=handle, path_factory=path, segment_bound=2,
                            box=(np.zeros(2, complex), np.ones(2, complex)),
                            label="square")


@pytest.mark.parametrize("knots, witness", [
    ([[0.5, 0.4], [0.4, 0.0]], "sample 0: path starts 0.1 away from the point"),
    ([START, [0.4 + 0.5j, 0.25], [0.3, 0.0]],
     "sample 0: a path sample leaves the relaxed set (residual 0.5)"),
    ([START, [0.4, 0.25]], "sample 0: endpoint infeasible (residual 0.25)"),
    ([START, [0.6, 0.25], [0.4, 0.0]], "sample 0: cost increases along the path"),
    ([START, [0.45, 0.7], [0.4, 0.0]],
     "sample 0: Lyapunov value increases along the path"),
])
def test_each_path_condition_names_its_witness(knots, witness):
    checks = check_c1_c3(square_problem(knots), [START])
    assert checks.c3.witnesses == (witness,)
    assert checks.c1.witnesses == (witness,)
    assert not checks.c3.passed and not checks.c1.passed
    assert checks.c3.margin < 0 and checks.c1.margin < 0


def test_anchor_gap_sets_the_margin():
    checks = check_c1_c3(square_problem([[0.5, 0.4], [0.4, 0.0]]), [START])
    # the anchor tolerance 1e-9 * (1 + max|x|) minus the gap
    assert checks.c3.margin == checks.c1.margin == 1e-9 * 1.5 - abs(0.4 - 0.5)


@pytest.mark.parametrize("lyapunov, witness, margin", [
    # positive at the feasible endpoint (0.4, 0)
    (lambda x: x[..., 1].real + x[..., 0].real / 4,
     "sample 0: endpoint infeasible (Lyapunov value 0.1)", 1e-8 - 0.1),
    # flat, so it never rises but does not strictly decrease either
    (lambda x: 0.0 * x[..., 0].real,
     "sample 0: Lyapunov value did not strictly decrease end to end", -1e-12),
])
def test_lyapunov_faults_that_count_only_when_failing(lyapunov, witness, margin):
    checks = check_c1_c3(square_problem([START, [0.4, 0.25], [0.4, 0.0]],
                                        lyapunov), [START])
    assert checks.c3.witnesses == checks.c1.witnesses == (witness,)
    assert checks.c3.margin == checks.c1.margin == pytest.approx(margin, rel=1e-12)


def test_flat_cost_fails_only_the_strict_condition():
    checks = check_c1_c3(square_problem([START, [0.5, 0.0]]), [START])
    assert checks.c3.passed
    assert checks.c1.witnesses == ("sample 0: cost did not strictly decrease (drop 0)",)
    assert checks.c1.margin == pytest.approx(-1.5e-12, rel=1e-9)


def test_monotone_path_passes_both():
    checks = check_c1_c3(square_problem([START, [0.4, 0.25], [0.3, 0.0]]), [START])
    assert checks.c3.passed and checks.c1.passed
    assert checks.c3.witnesses == () and checks.c1.witnesses == ()


# --- each constructed path is verified once, by the checker -------------------

def count_calls(monkeypatch, fn):
    """Record the calls to ``fn`` made through any relaxcert module that
    binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("relaxcert"):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def opf_samples(seed, count):
    rng = np.random.default_rng(seed)
    net, cost = random_radial_network(rng, n_bus=6)
    points = [pack_point(x) for x in sample_relaxed_points(net, cost, count, rng)]
    return opf_certified_problem(net, cost), points


def count_evaluations(handle):
    """A handle that records the shape of each stack it evaluates, and the
    list of those shapes."""
    shapes = []

    def evaluate(pts):
        shapes.append(np.shape(pts))
        return handle.evaluate(pts)

    return ProblemHandle(evaluate), shapes


def test_opf_path_verified_once_per_point(monkeypatch):
    problem, points = opf_samples(4, 5)
    handle, evaluated = count_evaluations(problem.handle)
    problem = dataclasses.replace(problem, handle=handle)
    verified = count_calls(monkeypatch, core.verify_path)
    validated = count_calls(monkeypatch, distflow.validate_assumptions)
    residuals = [count_calls(monkeypatch, fn)
                 for fn in (distflow.residual_Xhat, distflow.residual_X)]
    unpacked, pf = (count_calls(monkeypatch, fn)
                    for fn in (distflow.unpack_point, distflow.pf_residuals))
    checks = check_c1_c3(problem, points)
    assert checks.c3.passed and checks.c1.passed
    assert len(verified) == len(points)
    assert validated == []
    # one evaluation of the sample stack, then one per path for its one
    # knot segment; the endpoint's residual is read from that segment, and
    # the restoration itself judges nothing
    d = len(points[0])
    assert evaluated == [(len(points), d)] + [(core.SEGMENT_SAMPLES, d)] * len(points)
    assert residuals == [[], []]
    # each evaluation unpacks its stack and computes its DistFlow residuals
    # once; each restoration unpacks its starting point once more
    assert len(pf) == len(evaluated)
    assert len(unpacked) == len(evaluated) + len(points)


def test_opf_run_measures_the_optimum_and_reference_once(tmp_path, monkeypatch):
    feasible, relaxed, reference = (
        count_calls(monkeypatch, fn) for fn in (
            distflow.residual_X, distflow.residual_Xhat, restore.cprime_reference))
    evaluated = []

    def counted_handle(net, cost):
        handle, shapes = count_evaluations(opf_handle(net, cost))
        evaluated.append(shapes)
        return handle

    opf_handle = restore._opf_handle
    monkeypatch.setattr(restore, "_opf_handle", counted_handle)
    out = tmp_path / "run"
    n = 5
    assert main(["opf", os.path.join(CASES, "demo_2bus.json"),
                 "--samples", str(n), "--out", str(out)]) == 0
    notes = json.loads((out / "report.json").read_text())["notes"]
    assert notes[0].startswith("optimum is feasible")
    # the optimum is measured by the handle, not by the residual functions
    assert feasible == []
    # the sampler's relaxed residuals depend on its rejected draws, so this
    # run's count is pinned, not a formula in n; they are its only calls
    assert len(relaxed) == 5
    # the checker's handle evaluates the optimum's (d,) vector once, for
    # both residuals, then the sample stack and each path's one knot
    # segment; the CSV writer's handle evaluates its trace once
    net, _ = distflow.load_case(os.path.join(CASES, "demo_2bus.json"))
    d = 2 * (net.n_bus + net.n_line)
    assert evaluated == [[(d,), (n, d)] + [(core.SEGMENT_SAMPLES, d)] * n,
                         [(core.SEGMENT_SAMPLES, d)]]
    # the c' note reads the instance constant once; margins only measure
    assert len(reference) == 1


def test_restoration_off_the_relaxed_set_is_a_c3_witness(monkeypatch):
    problem, points = opf_samples(5, 3)
    bend_restorations(monkeypatch)
    checks = check_c1_c3(problem, points)
    assert not checks.c3.passed and checks.c3.margin < 0
    for i in range(len(points)):
        left = [w for w in checks.c3.witnesses if w.startswith(
            f"sample {i}: a path sample leaves the relaxed set (residual ")]
        assert len(left) == 1


def lrsdp_samples(seed, count, n=4):
    """Full-rank trace-one matrices of a rank-one spectraplex instance: in
    the relaxed set, outside the feasible one."""
    rng = np.random.default_rng(seed)
    inst = random_spectraplex_instance(rng, n=n)
    points = [random_feasible_psd(rng, n).reshape(-1) for _ in range(count)]
    return inst, lrsdp_certified_problem(inst), points


def test_lrsdp_path_verified_once_per_point(monkeypatch):
    _, problem, points = lrsdp_samples(6, 4)
    verified = count_calls(monkeypatch, core.verify_path)
    checks = check_c1_c3(problem, points)
    assert checks.c3.passed
    assert len(verified) == len(points)


def test_lrsdp_run_verifies_its_reduction_once(tmp_path, monkeypatch):
    inst = random_spectraplex_instance(np.random.default_rng(7), n=5, degenerate=True)
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(instance_to_dict(inst)))
    verified = count_calls(monkeypatch, core.verify_path)
    out = tmp_path / "run"
    assert main(["lrsdp", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["stages"] > 0
    assert len(verified) == 1


def test_reduction_off_the_psd_cone_is_a_c3_witness(monkeypatch):
    _, problem, points = lrsdp_samples(8, 3)
    bend_reductions(monkeypatch)
    checks = check_c1_c3(problem, points)
    assert not checks.c3.passed and checks.c3.margin < 0
    for i in range(len(points)):
        left = [w for w in checks.c3.witnesses if w.startswith(
            f"sample {i}: a path sample leaves the relaxed set (residual ")]
        assert len(left) == 1


# --- one knot segment at a time ------------------------------------------------

def assert_per_segment_matches_whole_trace(handle, x, trace):
    """``verify_path`` evaluates one knot segment at a time; its costs,
    Lyapunov values and relaxed residuals, and its endpoint's feasible
    residual, are those of one evaluation of the whole sample stack, bit
    for bit."""
    check = core.verify_path(handle, x, trace)
    whole = handle.evaluate(trace.points)
    for got, want in ((check.costs, whole.cost), (check.lyapunov, whole.lyapunov),
                      (check.relaxed, whole.relaxed)):
        assert got.tobytes() == want.tobytes()
    assert check.end_residual.hex() == float(whole.feasible[-1]).hex()


def test_reduction_verified_stage_by_stage():
    rng = np.random.default_rng(12)
    inst = random_spectraplex_instance(rng, n=5, degenerate=True)
    X0 = random_feasible_psd(rng, 5)
    reduction = reduce_rank_path(inst, X0)
    assert reduction.trace.segments >= 3
    assert_per_segment_matches_whole_trace(
        lrsdp_certified_problem(inst).handle, X0.reshape(-1), reduction.trace)


def test_restoration_verified_as_one_segment():
    problem, points = opf_samples(4, 1)
    trace = problem.path_factory(points[0])
    assert trace.segments == 1
    assert_per_segment_matches_whole_trace(problem.handle, points[0], trace)


def test_lrsdp_residuals_match_eigvalsh():
    """The residuals read the Lyapunov value's ``eigh`` spectrum; they stay
    within 1e-15 of the ``eigvalsh`` values, on and off the cone."""
    rng = np.random.default_rng(13)
    inst = random_spectraplex_instance(rng, n=5, degenerate=True)
    handle = lrsdp_certified_problem(inst).handle
    trace = reduce_rank_path(inst, random_feasible_psd(rng, 5)).trace
    near = trace.points[::10]
    noise = (rng.normal(size=near.shape) + 1j * rng.normal(size=near.shape)) / 10
    pts = np.concatenate([trace.points, near + noise])
    raw = pts.reshape(-1, 5, 5)
    X = (raw + np.swapaxes(raw, -2, -1).conj()) / 2
    vals = np.linalg.eigvalsh(X)
    relaxed = np.maximum.reduce([
        np.max(np.abs(raw - np.swapaxes(raw, -2, -1).conj()), axis=(-2, -1)) / 2,
        inst.constraint_residual(X), -vals[:, 0], np.zeros(len(pts))])
    feasible = np.maximum(relaxed, np.maximum(np.sum(vals[:, :-1], axis=-1), 0.0))
    values = handle.evaluate(pts)
    np.testing.assert_allclose(values.relaxed, relaxed, rtol=0, atol=1e-15)
    np.testing.assert_allclose(values.feasible, feasible, rtol=0, atol=1e-15)
    assert np.max(relaxed) > 0.1 and np.max(feasible) > 0.1


def test_lrsdp_spectrum_follows_the_stack_bytes():
    """A stack changed in place is decomposed again."""
    rng = np.random.default_rng(14)
    inst = random_spectraplex_instance(rng, n=4)
    handle = lrsdp_certified_problem(inst).handle
    pts = np.stack([random_feasible_psd(rng, 4).reshape(-1) for _ in range(3)]).astype(complex)
    before = handle.evaluate(pts).lyapunov
    pts[1] = random_feasible_psd(rng, 4, rank=1).reshape(-1)
    after = handle.evaluate(pts).lyapunov
    assert after[1] != before[1] and after[1] <= 1e-12
    fresh = lrsdp_certified_problem(inst).handle.evaluate(pts).lyapunov
    assert after.tobytes() == fresh.tobytes()


def end_residual_cases(name):
    """``(handle, point, trace)`` triples: restorations of OPF samples, a
    stage-by-stage LRSDP reduction, or two-segment paths of an
    intersection composite."""
    if name == "opf":
        problem, points = opf_samples(4, 5)
        return [(problem.handle, x, problem.path_factory(x)) for x in points]
    if name == "lrsdp":
        rng = np.random.default_rng(12)
        inst = random_spectraplex_instance(rng, n=5, degenerate=True)
        X0 = random_feasible_psd(rng, 5)
        trace = reduce_rank_path(inst, X0).trace
        assert trace.segments >= 3
        return [(lrsdp_certified_problem(inst).handle, X0.reshape(-1), trace)]
    comp = intersect_feasible(block_primitive(0), block_primitive(1), split=([0], [1]))
    points = np.random.default_rng(15).uniform(0.05, 1.0, size=(10, 2)).astype(complex)
    traces = [comp.path_factory(x) for x in points]
    assert all(tr.segments == 2 for tr in traces)
    return [(comp.handle, x, tr) for x, tr in zip(points, traces)]


@pytest.mark.parametrize("name", ["opf", "lrsdp", "intersect"])
def test_end_residual_is_the_endpoint_evaluated_alone(name):
    """The endpoint's feasible residual, read from the last knot segment's
    evaluation, equals that of the endpoint evaluated alone, bit for bit."""
    for handle, x, trace in end_residual_cases(name):
        got = core.verify_path(handle, x, trace).end_residual
        assert got.hex() == float(handle.evaluate(trace.end).feasible).hex()
