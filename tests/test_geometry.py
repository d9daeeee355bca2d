import re

import numpy as np
import pytest
import sympy
from scipy.linalg import block_diag

from geomqm import (
    AnalyticMetric,
    LatticeError,
    LatticeMetricInterpolant,
    LatticeSpec,
    Trajectory,
    build_lattice,
    christoffel,
    constant_metric,
    geodesic_integrate,
    lorentzian_lift,
    zeroth_residual,
)
from geomqm.geometry import ChartExit


def polar_like_metric():
    """Lower metric diag(1, x^2), passed as its inverse diag(1, x^-2): the
    flat plane in polar-style coordinates."""
    return AnalyticMetric(
        lambda q: np.diag([1.0, 0.0]) + q[..., 0, None, None] ** -2 * np.diag([0.0, 1.0]),
        ndim=2, default_eta=1e-4,
    )


def christoffel_oracle_diag1_x2(x_val):
    """Symbolic differentiation of the exact Christoffel formula."""
    x, y = sympy.symbols("x y")
    coords = (x, y)
    g = sympy.Matrix([[1, 0], [0, x**2]])
    ginv = g.inv()
    gamma = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                expr = sum(
                    ginv[k, l]
                    * (
                        sympy.diff(g[l, j], coords[i])
                        + sympy.diff(g[l, i], coords[j])
                        - sympy.diff(g[i, j], coords[l])
                    )
                    for l in range(2)
                ) / 2
                gamma[k, i, j] = float(expr.subs({x: x_val}))
    return gamma


def test_constant_metric_has_zero_christoffel():
    met = AnalyticMetric(lambda q: np.array([[2.0, 0.3], [0.3, 1.0]]), ndim=2)
    gamma = christoffel(met, np.array([0.4, -1.0]))
    assert np.max(np.abs(gamma)) < 1e-10


def test_christoffel_matches_symbolic_oracle():
    gamma = christoffel(polar_like_metric(), np.array([2.0, 0.7]))
    oracle = christoffel_oracle_diag1_x2(2.0)
    assert oracle[0, 1, 1] == -2.0 and oracle[1, 0, 1] == 0.25 * 2  # sanity
    assert np.max(np.abs(gamma - oracle)) < 1e-7


def test_christoffel_symmetric_lower_indices():
    def gfun(q):
        x, y = q[..., 0], q[..., 1]
        return np.stack(
            [np.stack([1.0 + 0.1 * y ** 2, 0.2 * x], -1),
             np.stack([0.2 * x, 2.0 + np.sin(x)], -1)], -2
        )

    met = AnalyticMetric(gfun, ndim=2)
    gamma = christoffel(met, np.array([0.8, -0.3]))
    assert np.max(np.abs(gamma - np.transpose(gamma, (0, 2, 1)))) < 1e-12


def test_lattice_interpolant_matches_nodes():
    lat = build_lattice(LatticeSpec("cylinder", (6, 5), (1.0, 0.8)))
    rng = np.random.default_rng(3)
    g = np.zeros((lat.n_sites, 2, 2))
    g[:, 0, 0] = 1.0 + 0.3 * rng.random(lat.n_sites)
    g[:, 1, 1] = 1.5 + 0.3 * rng.random(lat.n_sites)
    g[:, 0, 1] = g[:, 1, 0] = 0.1 * rng.random(lat.n_sites)
    interp = LatticeMetricInterpolant(lat, g)
    lower = np.linalg.inv(g)
    for s in (0, 7, lat.n_sites - 1):
        assert np.allclose(interp.lower(lat.positions[s]), lower[s], atol=1e-12)
    # positive definite between nodes (convex combination of PD matrices)
    mid = lat.positions[0] + np.array([0.5, 0.4])
    assert np.min(np.linalg.eigvalsh(interp.lower(mid))) > 0


def test_lattice_interpolant_periodic_wrap():
    lat = build_lattice(LatticeSpec("ring", (8,), (1.0,)))
    g = (1.0 + 0.2 * np.sin(2 * np.pi * lat.positions[:, 0] / 8)).reshape(-1, 1, 1)
    interp = LatticeMetricInterpolant(lat, g)
    assert np.allclose(interp.lower(np.array([8.0])), interp.lower(np.array([0.0])))
    assert np.allclose(interp.lower(np.array([-0.5])), interp.lower(np.array([7.5])))


def test_lattice_interpolant_chart_bounds():
    lat = build_lattice(LatticeSpec("interval", (5,), (1.0,)))
    interp = LatticeMetricInterpolant(lat, constant_metric(lat))
    with pytest.raises(ChartExit):
        interp.lower(np.array([4.5]))


def test_flat_geodesics_are_straight():
    met = AnalyticMetric(lambda q: np.eye(2), ndim=2)
    q0, v0 = np.array([0.3, -0.2]), np.array([0.7, 0.4])
    traj = geodesic_integrate(met, q0, v0, 1e-2, 10.0)
    expect = q0[None, :] + traj.times[:, None] * v0[None, :]
    assert np.max(np.abs(traj.positions - expect)) < 1e-8
    assert traj.speed2_drift() < 1e-12


def test_geodesic_fourth_order_self_convergence():
    met = polar_like_metric()
    st = (np.array([2.0, 0.0]), np.array([-0.5, 0.4]))
    runs = {}
    for dt in (0.04, 0.02, 0.01):
        runs[dt] = geodesic_integrate(met, *st, dt, 2.0, record_every=int(round(0.2 / dt)))
    e1 = np.max(np.abs(runs[0.04].positions - runs[0.02].positions))
    e2 = np.max(np.abs(runs[0.02].positions - runs[0.01].positions))
    assert e1 / e2 >= 12.0


def test_geodesic_speed_conservation():
    met = polar_like_metric()
    st = (np.array([2.0, 0.0]), np.array([-0.1, 0.15]))
    traj = geodesic_integrate(met, *st, 1e-3, 10.0, record_every=100)
    assert traj.speed2_drift() <= 1e-8


def test_geodesic_reparametrization():
    # scaling v by lam traverses the same path in time T / lam
    met = polar_like_metric()
    q0 = np.array([2.0, 0.1])
    v0 = np.array([-0.2, 0.1])
    lam = 2.0
    t1 = geodesic_integrate(met, q0, v0, 1e-3, 4.0, record_every=1000)
    t2 = geodesic_integrate(met, q0, lam * v0, 5e-4, 2.0, record_every=1000)
    assert np.max(np.abs(t1.positions - t2.positions)) < 1e-8


def test_geodesic_truncates_at_open_boundary():
    lat = build_lattice(LatticeSpec("rectangle", (5, 5), (1.0, 1.0)))
    interp = LatticeMetricInterpolant(lat, constant_metric(lat))
    traj = geodesic_integrate(
        interp, np.array([2.0, 2.0]), np.array([1.0, 0.0]), 0.01, 10.0
    )
    assert traj.truncated
    assert traj.positions[-1, 0] <= 4.0 + 1e-9


def test_lift_signature_and_static_blocks():
    lat = build_lattice(LatticeSpec("rectangle", (4, 4), (1.0, 1.0)))
    g = constant_metric(lat, np.array([[1.0, 0.2], [0.2, 2.0]]))
    st = lorentzian_lift(lat, np.broadcast_to(g, (3,) + g.shape).copy(), [0.0, 1.0, 2.0])
    block = block_diag(1.0 / st.g00, np.linalg.inv(st.fields)[1, 5])  # lower indices at site 5, sample 1
    eigs = np.linalg.eigvalsh(block)
    assert (eigs < 0).sum() == 1 and (eigs > 0).sum() == 2
    assert block[0, 0] == -1.0 and np.max(np.abs(block[0, 1:])) == 0.0
    assert st.is_static()
    # block determinant identity: det(lift) = -det(spatial lower block)
    spatial = block[1:, 1:]
    assert abs(np.linalg.det(block) + np.linalg.det(spatial)) < 1e-12


def test_lift_rejects_nonpositive_sample():
    lat = build_lattice(LatticeSpec("rectangle", (4, 4), (1.0, 1.0)))
    g = constant_metric(lat)
    bad = g.copy()
    bad[3] = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(LatticeError):
        lorentzian_lift(lat, bad)


def test_lift_refuses_an_empty_series_and_a_time_grid_of_another_length():
    lat = build_lattice(LatticeSpec("ring", (5,), (1.0,)))
    g = constant_metric(lat)
    for samples, times, got in [(np.empty((0, 5, 1, 1)), None, "got 0 on 0 times"),
                                ([g, g], [0.0], "got 2 on 1 times")]:
        with pytest.raises(LatticeError, match=f"one metric sample per time, at least one; {got}"):
            lorentzian_lift(lat, samples, times)


def straight_line_trajectory(q0, v, T, n):
    ts = np.linspace(0.0, T, n)
    qs = q0[None, :] + ts[:, None] * v[None, :]
    vs = np.broadcast_to(v, (n, len(v))).copy()
    return Trajectory(ts, qs, vs, np.full(n, float(v @ v)))


def test_zeroth_residual_static_is_zero():
    lat = build_lattice(LatticeSpec("rectangle", (6, 6), (1.0, 1.0)))
    g = constant_metric(lat)
    st = lorentzian_lift(lat, np.broadcast_to(g, (4,) + g.shape).copy(), np.arange(4.0))
    traj = straight_line_trajectory(np.array([2.0, 2.0]), np.array([0.3, 0.1]), 3.0, 13)
    assert np.max(np.abs(zeroth_residual(st, traj))) <= 1e-12


def test_zeroth_residual_linear_scaling_oracle():
    # lower metric (1 + eps t) id: residual = eps |v|^2 / 2 exactly
    lat = build_lattice(LatticeSpec("rectangle", (8, 8), (1.0, 1.0)))
    eps = 0.01
    times = np.linspace(0.0, 2.0, 9)
    samples = np.array([constant_metric(lat) / (1.0 + eps * t) for t in times])
    st = lorentzian_lift(lat, samples, times)
    v = np.array([0.5, 0.3])
    traj = straight_line_trajectory(np.array([2.0, 2.0]), v, 2.0, 11)
    r = zeroth_residual(st, traj)
    expect = 0.5 * eps * float(v @ v)
    assert np.max(np.abs(r - expect)) / expect < 2e-3


def test_zeroth_residual_quadratic_in_velocity():
    lat = build_lattice(LatticeSpec("rectangle", (8, 8), (1.0, 1.0)))
    times = np.linspace(0.0, 2.0, 9)
    samples = np.array([constant_metric(lat) / (1.0 + 0.02 * t) for t in times])
    st = lorentzian_lift(lat, samples, times)
    v = np.array([0.4, 0.2])
    r1 = zeroth_residual(st, straight_line_trajectory(np.array([2.0, 2.0]), v, 2.0, 9))
    r2 = zeroth_residual(st, straight_line_trajectory(np.array([2.0, 2.0]), 2 * v, 2.0, 9))
    assert np.max(np.abs(r2 - 4.0 * r1)) < 1e-12


def test_zeroth_residual_needs_three_samples():
    lat = build_lattice(LatticeSpec("rectangle", (6, 6), (1.0, 1.0)))
    samples = np.array([constant_metric(lat), constant_metric(lat) * 0.5])
    st = lorentzian_lift(lat, samples, [0.0, 1.0])
    traj = straight_line_trajectory(np.array([2.0, 2.0]), np.array([0.1, 0.0]), 1.0, 5)
    with pytest.raises(LatticeError):
        zeroth_residual(st, traj)


def test_lift_geodesics_project_to_spatial_geodesics():
    # static g, launch orthogonal to time slices: spatial components follow
    # the spatial geodesic flow
    gfun = lambda q: np.diag([1.0, 0.0]) + q[..., 0, None, None] ** -2 * np.diag([0.0, 1.0])  # noqa: E731

    def lifted(q):
        out = np.zeros(q.shape[:-1] + (3, 3))
        out[..., 0, 0] = -1.0
        out[..., 1:, 1:] = gfun(q[..., 1:])
        return out

    met_space = AnalyticMetric(gfun, ndim=2, default_eta=1e-4)
    met_lift = AnalyticMetric(lifted, ndim=3, default_eta=1e-4)
    ts = geodesic_integrate(
        met_space, np.array([2.0, 0.0]), np.array([-0.1, 0.15]),
        1e-3, 5.0, record_every=200,
    )
    tl = geodesic_integrate(
        met_lift,
        np.array([0.0, 2.0, 0.0]), np.array([1.0, -0.1, 0.15]),
        1e-3, 5.0, record_every=200,
    )
    assert np.max(np.abs(tl.positions[:, 1:] - ts.positions)) <= 1e-6
    assert np.max(np.abs(tl.positions[:, 0] - tl.times)) <= 1e-10


def test_christoffel_chart_margin():
    # on an open edge the difference is one-sided; past it, q itself exits
    lat = build_lattice(LatticeSpec("interval", (5,), (1.0,)))
    interp = LatticeMetricInterpolant(lat, constant_metric(lat))
    assert np.array_equal(christoffel(interp, np.array([4.0])), np.zeros((1, 1, 1)))
    with pytest.raises(ChartExit):
        christoffel(interp, np.array([4.5]))
    # a linear lower metric g = 1 + x: the one-sided difference is exact,
    # Gamma = g' / (2 g); over the chart's 1e-9 h margin past the edge the
    # edge cell extends linearly (the test below bounds the error by 1e-12)
    lower = (1.0 + lat.positions[:, 0]).reshape(-1, 1, 1)
    interp = LatticeMetricInterpolant(lat, np.linalg.inv(lower))
    for x in (0.0, 0.1, 3.9, 4.0):
        gamma = christoffel(interp, np.array([x]))[0, 0, 0]
        assert abs(gamma - 0.5 / (1.0 + x)) <= 1e-8


def test_christoffel_of_a_linear_metric_is_exact_up_to_the_open_edges():
    # a stencil point inside the chart's margin past an edge reads the
    # edge cell extended linearly, not the edge value held
    lat = build_lattice(LatticeSpec("interval", (5,), (1.0,)))
    lower = (1.0 + lat.positions[:, 0]).reshape(-1, 1, 1)
    interp = LatticeMetricInterpolant(lat, np.linalg.inv(lower))
    for x in (0.0, 0.1, 3.9, 4.0):
        gamma = christoffel(interp, np.array([x]))[0, 0, 0]
        assert abs(gamma - 0.5 / (1.0 + x)) <= 1e-12 * 0.5 / (1.0 + x), x


@pytest.mark.parametrize("q0", [[0.0, 0.0], [0.0, 1.5]])
def test_flat_geodesic_from_an_open_edge_is_not_truncated(q0):
    lat = build_lattice(LatticeSpec("rectangle", (4, 4), (1.0, 1.0)))
    interp = LatticeMetricInterpolant(lat, constant_metric(lat))
    traj = geodesic_integrate(interp, q0, [1.0, 0.0], 0.01, 1.0)
    assert not traj.truncated and len(traj.times) == 101
    assert np.max(np.abs(traj.positions[-1] - (np.asarray(q0) + [1.0, 0.0]))) <= 1e-12
    # leaving the lattice still truncates
    out = geodesic_integrate(interp, [3.0, 1.0], [1.0, 0.0], 0.01, 1.0)
    assert out.truncated and len(out.times) == 1


@pytest.mark.parametrize("record_every", [0, -1, 1.5])
def test_geodesic_refuses_a_bad_record_every(record_every):
    met = AnalyticMetric(lambda q: np.eye(2), ndim=2)
    with pytest.raises(ValueError, match="record_every"):
        geodesic_integrate(met, [0.0, 0.0], [1.0, 0.0], 0.01, 0.1, record_every=record_every)


def test_geodesic_refuses_more_steps_than_the_limit_before_the_first():
    met = AnalyticMetric(lambda q: pytest.fail("a step was taken"), ndim=2)
    with pytest.raises(ValueError, match="exceeds the step limit 1000000"):
        geodesic_integrate(met, [0.0, 0.0], [1.0, 0.0], 1e-12, 4.0)


def test_interpolant_christoffel_converges_second_order():
    # interpolated Christoffel at a node vs the analytic value: O(h^2)
    # with the default eta = h/4
    def gamma_err(n):
        lat = build_lattice(LatticeSpec("ring", (n,), (1.0 / n,)))
        x = lat.positions[:, 0]
        g_up = (1.0 / (1.0 + 0.3 * np.sin(2 * np.pi * x))).reshape(-1, 1, 1)
        interp = LatticeMetricInterpolant(lat, g_up)
        # lower metric 1 + 0.3 sin(2 pi x): Gamma = g^-1 g' / 2 analytically
        q = lat.positions[n // 8]
        gamma = christoffel(interp, q)[0, 0, 0]
        glow = 1.0 + 0.3 * np.sin(2 * np.pi * q[0])
        dglow = 0.3 * 2 * np.pi * np.cos(2 * np.pi * q[0])
        return abs(gamma - 0.5 * dglow / glow)

    e1, e2 = gamma_err(16), gamma_err(32)
    assert 3.0 < e1 / e2 < 5.5


def test_christoffel_evaluates_its_stencil_in_one_evaluate_call():
    calls = []

    class Counting(AnalyticMetric):
        def evaluate(self, q):
            calls.append(np.shape(q))
            return super().evaluate(q)

    met = Counting(
        lambda q: np.diag([1.0, 0.0]) + q[..., 0, None, None] ** 2 * np.diag([0.0, 1.0]),
        ndim=2, default_eta=1e-4,
    )
    christoffel(met, np.array([2.0, 0.7]))
    assert calls == [(5, 2)]


def test_metric_providers_take_point_batches():
    # a constant (d, d) result is broadcast over the batch
    met = AnalyticMetric(lambda q: np.array([[2.0, 0.3], [0.3, 1.0]]), ndim=2,
                         bounds=[None, (0.0, 1.0)])
    g = met.lower(np.zeros((3, 4, 2)))
    assert g.shape == (3, 4, 2, 2) and np.all(g == np.linalg.inv([[2.0, 0.3], [0.3, 1.0]]))
    with pytest.raises(ChartExit, match="coordinate 1 = 1.5 outside chart"):
        met.lower(np.array([[0.0, 0.5], [7.0, 1.5]]))
    lat = build_lattice(LatticeSpec("cylinder", (6, 5), (1.0, 0.8)))
    interp = LatticeMetricInterpolant(lat, constant_metric(lat, np.diag([2.0, 4.0])))
    assert interp.lower(lat.positions.reshape(5, 6, 2)).shape == (5, 6, 2, 2)
    with pytest.raises(ChartExit, match="coordinate 1 = -0.1 outside chart"):
        interp.lower(np.array([[-7.0, 0.5], [1.0, -0.1]]))  # axis 0 wraps


@pytest.mark.parametrize("point, message", [
    ([np.nan, 0.5], "coordinate 0 = nan outside chart [-inf, inf]"),
    ([-np.inf, 0.5], "coordinate 0 = -inf outside chart [-inf, inf]"),
    ([0.5, np.inf], "coordinate 1 = inf outside chart [0, 1]"),
    ([0.5, np.nan], "coordinate 1 = nan outside chart [0, 1]"),
])
def test_chart_refuses_non_finite_coordinates(point, message):
    met = AnalyticMetric(lambda q: np.eye(2), ndim=2, bounds=[None, (0.0, 1.0)])
    with pytest.raises(ChartExit, match=re.escape(message)):
        met.lower(np.array([[0.5, 0.5], point]))
    # the largest floats lie on an unbounded axis
    big = np.finfo(float).max
    assert met.lower(np.array([[big, 0.5], [-big, 0.5]])).shape == (2, 2, 2)


def test_zeroth_residual_makes_one_lower_call_per_time_sample(monkeypatch):
    calls = []
    original = LatticeMetricInterpolant.lower

    def counting(self, q):
        calls.append(len(q))
        return original(self, q)

    monkeypatch.setattr(LatticeMetricInterpolant, "lower", counting)
    lat = build_lattice(LatticeSpec("rectangle", (8, 8), (1.0, 1.0)))
    times = np.linspace(0.0, 2.0, 9)
    st = lorentzian_lift(lat, np.array([constant_metric(lat) / (1.0 + 0.01 * t)
                                        for t in times]), times)
    traj = straight_line_trajectory(np.array([2.0, 2.0]), np.array([0.5, 0.3]), 2.0, 41)
    zeroth_residual(st, traj)
    assert len(calls) <= len(times)
    assert sum(calls) == 2 * 41  # each point is read at the two samples around it
