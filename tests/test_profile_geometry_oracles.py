"""Array-evaluated profiles and metrics against per-point loop references.

The loops below are the straightforward definitions: a profile is a
closed form evaluated at one position vector at a time, a field is that
form called once per site or per link midpoint, the interpolated metric
finds the cell and the corner weights of one point axis by axis, a
Christoffel symbol differences five (2d + 1) scalar metric evaluations,
and speed^2 and the zeroth residual walk the trajectory point by point.
At small n they are the oracle: the array code must equal them bit for
bit on all six topologies, for every profile kind and on point batches
that include periodic wraps.

One exception is fixed in advance: a gaussian_bump squares its scaled
offset.  The scalar square goes through libm pow, the array square is
correctly rounded, and the exponential amplifies the difference (up to
5 ULP seen), so gaussian_bump values must agree within
4 eps (|base| + |amplitude|).

A second is fixed in advance too: the geodesic integrator steps one
stacked state (q, v) and contracts Gamma^k_ij v^i v^j by two matrix
products, where the loop oracle steps q and v apart and contracts by
einsum, so the sums may round differently.  The two must record the same
times, sample counts and truncation, and positions, velocities and
speed^2 within 1e-12 of the oracle's largest magnitude of each.
"""

import numpy as np
import pytest

from geomqm import (
    AnalyticMetric,
    LatticeMetricInterpolant,
    LatticeSpec,
    Trajectory,
    build_lattice,
    christoffel,
    geodesic_integrate,
    lorentzian_lift,
    zeroth_residual,
)
from geomqm.geometry import ChartExit
from geomqm.profiles import (
    connection_from_profiles,
    metric_from_profiles,
    metric_profile,
    resolve_profile,
    scalar_from_profile,
)

LATTICES = [
    ("interval", (5,), (0.7,)),
    ("ring", (3,), (1.0,)),
    ("ring", (7,), (0.5,)),
    ("rectangle", (4, 5), (1.0, 0.3)),
    ("cylinder", (5, 4), (0.5, 1.0)),
    ("torus", (3, 3), (1.0, 0.8)),
    ("torus", (4, 6), (1.0, 0.5)),
    ("box3", (3, 4, 3), (1.0, 0.5, 0.25)),
]
LATTICE_IDS = [f"{t}{s}" for t, s, _ in LATTICES]
EPS = np.finfo(float).eps


def lattice_of(case):
    topology, sizes, spacings = case
    return build_lattice(LatticeSpec(topology, sizes, spacings))


def profile_specs(d):
    specs = [{"profile": "constant", "value": 1.7}, {"profile": "zero"}, None]
    for axis in range(d):
        specs += [
            {"profile": "sine", "base": 0.3, "amplitude": 0.7, "axis": axis,
             "periods": 2.0, "phase": 0.4},
            {"profile": "gaussian_bump", "base": 0.2, "amplitude": 1.3,
             "center": 0.3, "width": 0.15, "axis": axis},
            {"profile": "polynomial", "coeffs": [0.5, -0.25, 0.125, 0.3], "axis": axis},
        ]
    return specs


def spec_id(spec):
    return "none" if spec is None else f"{spec['profile']}{spec.get('axis', '')}"


def sample_points(lattice, rng, count=60):
    """Random points over [-L, 2L] per axis (so periodic axes wrap), plus
    the sites and the link midpoints."""
    ext = np.array([lattice.axis_extent(k) for k in range(lattice.ndim)])
    rand = rng.uniform(-1.0, 2.0, (count, lattice.ndim)) * ext
    disp = lattice.stencil.steps[lattice.link_step] * np.asarray(lattice.spacings)
    mid = lattice.positions[lattice.link_src] + 0.5 * disp
    return np.concatenate([lattice.positions, mid, rand])


def chart_points(lattice, rng, count=60, margin=0.0):
    """Random points inside the interpolation chart: anywhere (wrapping)
    on periodic axes, within [margin, (n - 1) h - margin] on open ones;
    with margin 0 also the sites and the chart's edges on open axes."""
    d = lattice.ndim
    lo = np.empty(d)
    hi = np.empty(d)
    for k in range(d):
        h, n = lattice.spacings[k], lattice.sizes[k]
        if lattice.periodic[k]:
            lo[k], hi[k] = -2.0 * n * h, 3.0 * n * h
        else:
            lo[k], hi[k] = margin, (n - 1) * h - margin
    pts = [rng.uniform(lo, hi, (count, d))]
    if margin == 0.0:
        periodic = np.asarray(lattice.periodic)
        pts += [lattice.positions, np.where(periodic, lattice.positions[-1], hi)[None],
                np.where(periodic, lattice.positions[0], lo)[None]]
    return np.concatenate(pts)


def random_lower_field(lattice, rng):
    d = lattice.ndim
    a = rng.normal(size=(lattice.n_sites, d, d))
    return a @ np.swapaxes(a, 1, 2) + d * np.eye(d)


def assert_profile_values(spec, got, want):
    if spec is not None and spec["profile"] == "gaussian_bump":
        tol = 4 * EPS * (abs(spec["base"]) + abs(spec["amplitude"]))
        assert np.max(np.abs(got - want), initial=0.0) <= tol
    else:
        assert np.array_equal(got, want)


# ---------------------------------------------------------------- oracles

def point_profile(spec, lattice):
    """Profile dict -> callable(position vector) -> float, one point at a time."""
    if spec is None:
        return lambda pos: 0.0
    kind = spec["profile"]
    p = {k: float(v) for k, v in spec.items() if k not in ("profile", "coeffs")}
    axis = int(p.get("axis", 0))
    if kind == "constant":
        return lambda pos: p["value"]
    if kind == "zero":
        return lambda pos: 0.0
    if kind == "sine":
        base, amplitude = p.get("base", 0.0), p["amplitude"]
        periods, phase = p.get("periods", 1.0), p.get("phase", 0.0)
        L = lattice.axis_extent(axis)
        return lambda pos: base + amplitude * np.sin(
            2.0 * np.pi * periods * pos[axis] / L + phase
        )
    if kind == "gaussian_bump":
        base, amplitude = p.get("base", 0.0), p["amplitude"]
        L = lattice.axis_extent(axis)
        center = p.get("center", 0.5) * L
        width = p.get("width", 1.0 / 6.0) * L
        periodic = lattice.periodic[axis]
        span = lattice.sizes[axis] * lattice.spacings[axis]

        def fn(pos):
            dx = pos[axis] - center
            if periodic:
                dx = (dx + span / 2) % span - span / 2
            return base + amplitude * np.exp(-0.5 * (dx / width) ** 2)

        return fn
    if kind == "polynomial":
        coeffs = [float(c) for c in spec["coeffs"]]
        return lambda pos: float(np.polyval(coeffs[::-1], pos[axis]))
    raise AssertionError(kind)


def loop_scalar(lattice, spec):
    fn = point_profile(spec, lattice)
    return np.array([fn(p) for p in lattice.positions])


def loop_metric_function(lattice, component_specs):
    """q -> g^kl(q) (d, d), one point at a time."""
    d = lattice.ndim
    fns = {}
    for key, spec in component_specs.items():
        k, l = (int(p) for p in str(key).split(","))
        fns[(k, l)] = point_profile(spec, lattice)

    def gfun(q):
        g = np.eye(d)
        for (k, l), fn in fns.items():
            g[k, l] = fn(q)
            g[l, k] = g[k, l]
        return g

    return gfun


def loop_metric(lattice, component_specs):
    gfun = loop_metric_function(lattice, component_specs)
    return np.array([gfun(p) for p in lattice.positions])


def loop_connection(lattice, component_specs):
    disp = lattice.stencil.steps[lattice.link_step] * np.asarray(lattice.spacings)
    mid = lattice.positions[lattice.link_src] + 0.5 * disp
    theta = np.zeros(lattice.n_links)
    for k, spec in enumerate(component_specs):
        fn = point_profile(spec, lattice)
        theta += np.array([fn(m) for m in mid]) * disp[:, k]
    return theta


def loop_cell_weights(lat, q):
    idx0, frac = [], []
    for k in range(lat.ndim):
        u = q[k] / lat.spacings[k]
        n = lat.sizes[k]
        if lat.periodic[k]:
            u %= n
            i0 = int(np.floor(u)) % n
            f = u - np.floor(u)
        else:
            if u < -1e-9 or u > n - 1 + 1e-9:
                raise ChartExit(f"coordinate {k} = {q[k]:g} outside chart")
            u = min(max(u, 0.0), float(n - 1))
            i0 = min(int(np.floor(u)), n - 2)
            f = u - i0
        idx0.append(i0)
        frac.append(f)
    sites, weights = [], []
    for corner in range(1 << lat.ndim):
        coord = []
        w = 1.0
        for k in range(lat.ndim):
            bit = (corner >> k) & 1
            ik = idx0[k] + bit
            if lat.periodic[k]:
                ik %= lat.sizes[k]
            coord.append(ik)
            w *= frac[k] if bit else 1.0 - frac[k]
        sites.append(int(np.ravel_multi_index(tuple(coord), lat.sizes)))
        weights.append(w)
    return np.asarray(sites), np.asarray(weights)


def loop_interp_lower(lat, lower):
    """Point-at-a-time interpolant: q (d,) -> g_ij (d, d)."""

    def at(q):
        sites, weights = loop_cell_weights(lat, np.asarray(q, dtype=float))
        return np.einsum("c,cij->ij", weights, lower[sites])

    return at


def loop_christoffel(lower, d, q, eta, upper=None):
    """Per-axis central differences with scalar metric calls; g^kl at q is
    upper(q) where the provider holds it, else the inverse of lower(q)."""
    dg = np.empty((d, d, d))
    for l in range(d):
        e = np.zeros(d)
        e[l] = eta
        dg[l] = (lower(q + e) - lower(q - e)) / (2.0 * eta)
    ginv = np.linalg.inv(lower(q)) if upper is None else upper(q)
    bracket = np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, bracket)


def loop_speed2(lower, d, qs, vs):
    out = np.empty(len(qs))
    for i in range(len(qs)):
        try:
            g = lower(qs[i])
        except ChartExit:
            g = np.eye(d)
        out[i] = vs[i] @ g @ vs[i]
    return out


def loop_geodesic(metric, q0, v0, dt, T, record_every=1):
    """RK4 with q and v stepped apart, -einsum("kij,i,j->k", Gamma, v, v)
    as the acceleration and list appends; speed^2 point by point."""
    n_steps = int(round(T / dt))
    q = np.asarray(q0, dtype=float)
    v = np.asarray(v0, dtype=float)

    def acc(qq, vv):
        return -np.einsum("kij,i,j->k", christoffel(metric, qq), vv, vv)

    times, qs, vs = [0.0], [q], [v]
    truncated = False
    t = 0.0
    for step in range(n_steps):
        try:
            k1q, k1v = v, acc(q, v)
            k2q, k2v = v + 0.5 * dt * k1v, acc(q + 0.5 * dt * k1q, v + 0.5 * dt * k1v)
            k3q, k3v = v + 0.5 * dt * k2v, acc(q + 0.5 * dt * k2q, v + 0.5 * dt * k2v)
            k4q, k4v = v + dt * k3v, acc(q + dt * k3q, v + dt * k3v)
        except ChartExit:
            truncated = True
            break
        q = q + (dt / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
        v = v + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        t += dt
        if (step + 1) % record_every == 0 or step == n_steps - 1:
            times.append(t)
            qs.append(q)
            vs.append(v)
    speed2 = loop_speed2(metric.lower, metric.ndim, qs, vs)
    return Trajectory(np.array(times), np.array(qs), np.array(vs), speed2, truncated)


def assert_same_path(got, want):
    """Same samples and truncation; positions, velocities and speed^2
    within 1e-12 of the largest magnitude of want's."""
    assert len(got.times) == len(want.times) and got.truncated == want.truncated
    assert np.array_equal(got.times, want.times)
    for a, b in ((got.positions, want.positions), (got.velocities, want.velocities),
                 (got.speed2, want.speed2)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def loop_zeroth_residual(st, traj):
    lowers = np.linalg.inv(st.fields)
    interp = [loop_interp_lower(st.lattice, lowers[s]) for s in range(st.n_samples)]
    ts = st.times
    out = np.empty(len(traj.times))
    for i, t in enumerate(traj.times):
        s = int(round((t - ts[0]) / (ts[1] - ts[0])))
        s = min(max(s, 1), st.n_samples - 2)
        q = traj.positions[i]
        dg = (interp[s + 1](q) - interp[s - 1](q)) / (ts[s + 1] - ts[s - 1])
        v = traj.velocities[i]
        out[i] = 0.5 * v @ dg @ v
    return out


def smooth_metric_specs(d):
    """Inverse-metric components with no gaussian_bump (bit-exact forms)."""
    specs = {"0,0": {"profile": "sine", "base": 1.0, "amplitude": 0.3, "axis": 0,
                     "phase": 0.2}}
    if d > 1:
        specs["0,1"] = {"profile": "constant", "value": 0.1}
        specs[f"{d - 1},{d - 1}"] = {"profile": "polynomial",
                                     "coeffs": [1.2, 0.05, 0.01], "axis": d - 1}
    return specs


# ---------------------------------------------------------------- tests

@pytest.mark.parametrize("case", LATTICES, ids=LATTICE_IDS)
def test_every_profile_kind_matches_point_oracle(case):
    lat = lattice_of(case)
    rng = np.random.default_rng(len(case[1]) * 7 + case[1][0])
    X = sample_points(lat, rng)
    for spec in profile_specs(lat.ndim):
        want = np.array([point_profile(spec, lat)(x) for x in X])
        got = resolve_profile(spec, lat)(X)
        assert got.shape == want.shape, spec_id(spec)
        assert_profile_values(spec, got, want)
        # any leading batch shape: (2, n/2, d) gives the same values
        half = len(X) // 2 * 2
        batched = resolve_profile(spec, lat)(X[:half].reshape(2, half // 2, -1))
        assert np.array_equal(batched.reshape(-1), got[:half]), spec_id(spec)
        assert_profile_values(spec, scalar_from_profile(lat, spec), loop_scalar(lat, spec))


@pytest.mark.parametrize("case", LATTICES, ids=LATTICE_IDS)
def test_metric_and_connection_fields_match_loop_oracle(case):
    lat = lattice_of(case)
    d = lat.ndim
    comps = smooth_metric_specs(d)
    assert np.array_equal(metric_from_profiles(lat, comps), loop_metric(lat, comps))
    assert np.array_equal(metric_from_profiles(lat, None), loop_metric(lat, {}))
    rng = np.random.default_rng(5)
    X = sample_points(lat, rng)
    gfun = loop_metric_function(lat, comps)
    assert np.array_equal(metric_profile(lat, comps)(X), np.array([gfun(x) for x in X]))

    conn = [{"profile": "sine", "amplitude": 0.05, "axis": d - 1, "phase": 1.0},
            {"profile": "constant", "value": 0.04}, {"profile": "zero"}][:d]
    got = connection_from_profiles(lat, {"components": conn})
    assert np.array_equal(got, loop_connection(lat, conn))
    bump = [{"profile": "gaussian_bump", "base": 0.01, "amplitude": 0.1, "axis": k}
            for k in range(d)]
    got = connection_from_profiles(lat, {"components": bump})
    want = loop_connection(lat, bump)
    # per link: sum over d axes of a bump value times |disp| <= max spacing
    tol = 4 * EPS * 0.11 * d * max(lat.spacings)
    assert np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("case", LATTICES, ids=LATTICE_IDS)
def test_interpolant_matches_loop_oracle(case):
    lat = lattice_of(case)
    rng = np.random.default_rng(11)
    g_inverse = np.linalg.inv(random_lower_field(lat, rng))
    lower = np.linalg.inv(g_inverse)
    interp = LatticeMetricInterpolant(lat, g_inverse)
    at = loop_interp_lower(lat, lower)
    Q = chart_points(lat, rng)
    got = interp.lower(Q)
    assert np.array_equal(got, np.array([at(q) for q in Q]))
    sites, weights = interp._cell_weights(Q)
    for i, q in enumerate(Q):
        want_sites, want_weights = loop_cell_weights(lat, q)
        assert np.array_equal(sites[i], want_sites)
        assert np.array_equal(weights[i], want_weights)
    # a (2, m, d) batch gives the same matrices
    half = len(Q) // 2 * 2
    batched = interp.lower(Q[:half].reshape(2, half // 2, -1))
    assert np.array_equal(batched.reshape(got[:half].shape), got[:half])


@pytest.mark.parametrize("case", LATTICES, ids=LATTICE_IDS)
def test_christoffel_matches_per_axis_oracle(case):
    lat = lattice_of(case)
    d = lat.ndim
    rng = np.random.default_rng(13)
    g_inverse = np.linalg.inv(random_lower_field(lat, rng))
    lower = np.linalg.inv(g_inverse)
    interp = LatticeMetricInterpolant(lat, g_inverse)
    at = loop_interp_lower(lat, lower)
    eta = interp.default_eta
    for q in chart_points(lat, rng, count=12, margin=2 * eta):
        assert np.array_equal(christoffel(interp, q), loop_christoffel(at, d, q, eta))

    comps = smooth_metric_specs(d)
    gfun = loop_metric_function(lat, comps)
    analytic = AnalyticMetric(metric_profile(lat, comps), ndim=d, default_eta=1e-4)
    for q in sample_points(lat, rng, count=12):
        want = loop_christoffel(lambda x: np.linalg.inv(gfun(x)), d, q, 1e-4, upper=gfun)
        assert np.array_equal(christoffel(analytic, q), want)


@pytest.mark.parametrize("case", LATTICES, ids=LATTICE_IDS)
def test_zeroth_residual_matches_loop_oracle(case):
    lat = lattice_of(case)
    d = lat.ndim
    rng = np.random.default_rng(17)
    base = np.linalg.inv(random_lower_field(lat, rng))
    times = np.linspace(0.0, 2.0, 6)
    st = lorentzian_lift(lat, np.array([base * (1.0 + 0.1 * t + 0.05 * t * t)
                                        for t in times]), times)
    n = 23
    ts = np.linspace(0.0, 2.0, n)
    traj = Trajectory(ts, chart_points(lat, rng, count=n)[:n],
                      rng.normal(size=(n, d)), np.zeros(n))
    assert np.array_equal(zeroth_residual(st, traj), loop_zeroth_residual(st, traj))


@pytest.mark.parametrize("case", [c for c in LATTICES if len(c[1]) == 2],
                         ids=[i for c, i in zip(LATTICES, LATTICE_IDS) if len(c[1]) == 2])
def test_speed2_matches_loop_oracle(case):
    lat = lattice_of(case)
    comps = smooth_metric_specs(2)
    gfun = loop_metric_function(lat, comps)
    analytic = AnalyticMetric(metric_profile(lat, comps), ndim=2, default_eta=1e-4)
    traj = geodesic_integrate(
        analytic, np.array([0.6, 0.9]), np.array([0.3, -0.2]), 0.01, 0.5
    )
    want = loop_speed2(lambda x: np.linalg.inv(gfun(x)), 2, traj.positions, traj.velocities)
    assert np.array_equal(traj.speed2, want)


def test_speed2_identity_fallback_matches_loop_oracle():
    # a start point past the open chart's edge is recorded, then the first
    # step exits: its speed^2 is read with the identity metric
    lat = lattice_of(("rectangle", (5, 5), (1.0, 1.0)))
    rng = np.random.default_rng(19)
    g_inverse = np.linalg.inv(random_lower_field(lat, rng))
    lower = np.linalg.inv(g_inverse)
    interp = LatticeMetricInterpolant(lat, g_inverse)
    v0 = np.array([0.4, -0.7])
    traj = geodesic_integrate(interp, np.array([4.5, 2.0]), v0, 0.01, 1.0)
    assert traj.truncated and len(traj.times) == 1
    want = loop_speed2(loop_interp_lower(lat, lower), 2, traj.positions, traj.velocities)
    assert np.array_equal(traj.speed2, want)
    assert traj.speed2[0] == v0 @ v0


@pytest.mark.parametrize("record_every", [1, 7])
def test_geodesic_matches_loop_oracle_on_a_torus(record_every):
    lat = lattice_of(("torus", (4, 6), (1.0, 0.5)))
    analytic = AnalyticMetric(metric_profile(lat, smooth_metric_specs(2)), ndim=2,
                              default_eta=1e-4)
    start = (np.array([0.6, 0.9]), np.array([0.3, -0.2]), 0.01, 1.0)
    got = geodesic_integrate(analytic, *start, record_every=record_every)
    assert len(got.times) == 1 + -(-100 // record_every)
    assert_same_path(got, loop_geodesic(analytic, *start, record_every=record_every))


def test_geodesic_matches_loop_oracle_up_to_an_open_edge():
    lat = lattice_of(("rectangle", (5, 5), (1.0, 1.0)))
    rng = np.random.default_rng(29)
    interp = LatticeMetricInterpolant(lat, np.linalg.inv(random_lower_field(lat, rng)))
    start = (np.array([3.5, 2.0]), np.array([1.0, 0.3]), 0.01, 2.0)
    got = geodesic_integrate(interp, *start, record_every=3)
    assert got.truncated and 3 < len(got.times) < 1 + 200 // 3
    assert_same_path(got, loop_geodesic(interp, *start, record_every=3))


def test_geodesic_step_evaluates_and_inverts_the_metric_once_per_christoffel(monkeypatch):
    # a provider call made from outside the providers counts once, whichever
    # of its own methods it calls in turn
    counts = {"evaluate": 0, "lower": 0, "inv": 0, "solve": 0}
    depth = []
    for name in ("evaluate", "lower"):
        def provider_call(self, q, _name=name, _original=getattr(AnalyticMetric, name)):
            if not depth:
                counts[_name] += 1
            depth.append(1)
            try:
                return _original(self, q)
            finally:
                depth.pop()

        monkeypatch.setattr(AnalyticMetric, name, provider_call)
    for name in ("inv", "solve"):
        def linalg_call(*args, _name=name, _original=getattr(np.linalg, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(np.linalg, name, linalg_call)
    lat = lattice_of(("torus", (4, 6), (1.0, 0.5)))
    analytic = AnalyticMetric(metric_profile(lat, smooth_metric_specs(2)), ndim=2,
                              default_eta=1e-4)
    geodesic_integrate(analytic, np.array([0.6, 0.9]), np.array([0.3, -0.2]), 0.01, 0.1)
    # 10 RK4 steps of 4 Christoffel stencils, then speed^2 in one lower call
    assert counts == {"evaluate": 40, "lower": 1, "inv": 41, "solve": 0}
