"""Classical geometry induced by a metric: Christoffel symbols, geodesics,
the Lorentzian spacetime lift, and the time-dependence obstruction.

Metric evaluation goes through a small batch interface: ``evaluate(q)``
maps chart points q (..., d) to the pair (g^ij, g_ij) of (..., d, d)
matrices, ``lower(q)`` to g_ij alone, and both raise ChartExit if any
point lies outside the chart, whose per-axis bounds are the (2, d) rows
``chart`` (an unbounded axis holds -/+ the largest float).  Both
providers take the inverse metric g^ij, as the Hamiltonian holds it, and
invert it themselves; evaluate makes one batched inversion:

  * LatticeMetricInterpolant: per-site inversion of a MetricField
    (lattice.metric_field) followed by multilinear interpolation over
    lattice cells (invert-then-interpolate), periodic wrap on periodic
    axes, chart errors outside open axes.
  * AnalyticMetric: a closed-form callable q -> g^ij, inverted where it
    is evaluated, used by scenario profiles where machine-precision
    conservation matters (a C0 interpolant has derivative jumps at cell
    walls that a 4th-order integrator would see).

Geodesics integrate q_ddot^k + Gamma^k_ij q_dot^i q_dot^j = 0 with
classic fixed-step 4th-order Runge-Kutta; Christoffel symbols come from
central differences of the metric provider, its (2d+1)-point stencil
evaluated in one ``evaluate`` call, one-sided within the step of an open
chart edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .lattice import LatticeError, metric_field

STEP_LIMIT = 10**6  # largest geodesic duration T / dt, in RK4 steps
_UNBOUNDED = np.finfo(float).max  # the chart bound of an unbounded axis


class ChartExit(ValueError):
    """Evaluation or trajectory left the open-boundary chart."""


def _check_chart(q, lo, hi):
    """Raise ChartExit unless every point of q (..., d) lies within the
    per-axis bounds lo, hi (d,); non-finite coordinates never do, since
    the bounds are finite and NaN fails both comparisons."""
    inside = (q >= lo) & (q <= hi)
    if not inside.all():
        where = tuple(np.argwhere(~inside)[0])
        k = where[-1]
        lo_k, hi_k = (b if abs(b) < _UNBOUNDED else np.copysign(np.inf, b) for b in (lo[k], hi[k]))
        raise ChartExit(f"coordinate {k} = {q[where]:g} outside chart [{lo_k:g}, {hi_k:g}]")


def _lattice_bounds(lattice):
    """Chart bounds of a lattice, one (lo, hi) or None (unbounded) per
    axis: periodic axes are unbounded, an open axis spans [0, (n - 1) h]
    widened by 1e-9 h at each end."""
    return [None if periodic else (-1e-9 * h, (n - 1 + 1e-9) * h)
            for n, h, periodic in zip(lattice.sizes, lattice.spacings, lattice.periodic)]


def _chart(bounds):
    """Per-axis (lo, hi) rows (2, d) of bounds, None meaning unbounded and
    held as -/+ the largest float."""
    return np.array([(-_UNBOUNDED, _UNBOUNDED) if b is None else b for b in bounds],
                    dtype=float).T


class AnalyticMetric:
    """Metric provider backed by a closed-form callable q (..., d) ->
    g^ij (..., d, d), the inverse metric, which evaluate() returns with
    its inversion; a constant (d, d) result is broadcast.  bounds are
    optional chart bounds, (lo, hi) or None (unbounded) per axis."""

    def __init__(self, func, ndim, default_eta=1e-3, bounds=None):
        self._func = func
        self.ndim = ndim
        self.default_eta = default_eta
        self.chart = _chart(bounds if bounds is not None else [None] * ndim)

    def evaluate(self, q):
        q = np.asarray(q, dtype=float)
        _check_chart(q, *self.chart)
        g_inverse = np.asarray(self._func(q), dtype=float)
        if g_inverse.ndim <= q.ndim:
            g_inverse = np.broadcast_to(g_inverse, q.shape + (self.ndim,))
        return g_inverse, np.linalg.inv(g_inverse)

    def lower(self, q):
        return self.evaluate(q)[1]


class LatticeMetricInterpolant:
    """Multilinear interpolation of the lower metric over lattice cells,
    from the inverse-metric field g_inverse (n_sites, d, d).

    Site values are matched exactly at the nodes.  The chart spans every
    periodic axis and [0, (n - 1) h] on every open one, where the edge
    cells extend linearly over a 1e-9 h margin; the weights are convex, and
    keep the interpolant positive definite, inside [0, (n - 1) h] only.
    """

    def __init__(self, lattice, g_inverse):
        self.lattice = lattice
        self.ndim = lattice.ndim
        self._lower = np.linalg.inv(metric_field(lattice, g_inverse))
        self.default_eta = min(lattice.spacings) / 4.0
        self.chart = _chart(_lattice_bounds(lattice))

    def _cell_weights(self, q):
        """Corner sites (..., 2^d) and weights (..., 2^d) of the cells
        holding the points q (..., d); corner bit k steps along axis k."""
        lat = self.lattice
        n = np.asarray(lat.sizes)
        periodic = np.asarray(lat.periodic)
        u = q / np.asarray(lat.spacings, dtype=float)
        u = np.where(periodic, u % n, u)
        base = np.where(periodic, np.floor(u), np.clip(np.floor(u), 0, n - 2)).astype(int)
        frac = u - base
        bits = (np.arange(1 << self.ndim)[:, None] >> np.arange(self.ndim)) & 1
        corner = base[..., None, :] + bits
        corner = np.where(periodic, corner % n, corner)
        sites = np.ravel_multi_index(tuple(np.moveaxis(corner, -1, 0)), lat.sizes)
        weights = np.prod(np.where(bits, frac[..., None, :], 1.0 - frac[..., None, :]), axis=-1)
        return sites, weights

    def lower(self, q):
        q = np.asarray(q, dtype=float)
        _check_chart(q, *self.chart)
        sites, weights = self._cell_weights(q)
        return np.einsum("...c,...cij->...ij", weights, self._lower[sites])

    def evaluate(self, q):
        """(g^ij, g_ij) at q: the interpolated g_ij and its inverse."""
        g = self.lower(q)
        return np.linalg.inv(g), g


@cache
def _stencil(d):
    """Rows 0, +e_l, -e_l (2d + 1, d) of the Christoffel stencil."""
    pattern = np.concatenate([np.zeros((1, d)), np.eye(d), -np.eye(d)])
    pattern.flags.writeable = False
    return pattern


def christoffel(metric, q):
    """Christoffel symbols Gamma^k_ij at q by central differencing.

    Gamma^k_ij = 1/2 sum_l g^kl (d_i g_lj + d_j g_li - d_l g_ij);
    symmetric in the lower indices (torsion-free Levi-Civita).  The
    stencil q, q + eta e_l, q - eta e_l, eta = metric.default_eta, is
    evaluated in one evaluate call, and g^kl is the provider's at q.
    Where a stencil point leaves the chart (q within eta of an open edge)
    it is moved back onto the edge and the difference is taken over the
    distance left; q itself must lie in the chart.
    """
    q = np.asarray(q, dtype=float)
    eta = metric.default_eta
    if not 0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    d = metric.ndim
    points, width = q + eta * _stencil(d), 2.0 * eta
    try:
        g_inverse, g = metric.evaluate(points)
    except ChartExit:
        # one-sided at an open edge; q, kept unclipped, still raises outside
        points[1:] = np.clip(points[1:], *metric.chart)
        width = np.diagonal(points[1:d + 1] - points[d + 1:])[:, None, None]
        g_inverse, g = metric.evaluate(points)
    # dg[l, i, j] = d_l g_ij
    dg = (g[1:d + 1] - g[d + 1:]) / width
    bracket = (
        dg.transpose(1, 0, 2)    # d_i g_lj
        + dg.transpose(1, 2, 0)  # d_j g_li
        - dg                     # d_l g_ij
    )
    return 0.5 * np.einsum("kl,lij->kij", g_inverse[0], bracket)


def _bilinear(a, g, b):
    """a_i g_ij b_j for stacks a, b (n, d) and g (n, d, d)."""
    return (a[:, None, :] @ g @ b[:, :, None])[:, 0, 0]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled geodesic; truncated marks an open-chart exit."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    speed2: np.ndarray
    truncated: bool = False

    def speed2_drift(self):
        return float(np.max(np.abs(self.speed2 - self.speed2[0])))


def geodesic_integrate(metric, q0, v0, dt, T, record_every=1):
    """Integrate the geodesic equation from position q0 and velocity v0
    with classic RK4, in round(T / dt) steps; T / dt above STEP_LIMIT, and
    q0 or v0 of a shape other than (metric.ndim,), are refused before the
    first step.

    Returns a Trajectory sampled every record_every steps (plus start and
    final point); speed2 tracks g(q_dot, q_dot) along the way.  On open
    charts the trajectory stops with truncated=True instead of
    extrapolating beyond the boundary.
    """
    n_steps = _step_count(dt, T)
    if (not isinstance(record_every, (int, np.integer)) or isinstance(record_every, bool)
            or record_every < 1):
        raise ValueError(f"record_every must be an integer >= 1, got {record_every!r}")
    d = metric.ndim
    for name, value in (("q0", q0), ("v0", v0)):
        if np.shape(value) != (d,):
            raise ValueError(f"{name} must have shape ({d},) on a {d}-D metric, "
                             f"got {np.shape(value)}")

    def rate(y):
        # y = (q, v); dq/dt = v, dv^k/dt = -Gamma^k_ij v^i v^j
        v = y[d:]
        return np.concatenate([v, -(christoffel(metric, y[:d]) @ v) @ v])

    # the start, every record_every-th step and the last
    n_records = 1 + -(-n_steps // record_every)
    times = np.empty(n_records)
    states = np.empty((n_records, 2 * d))
    times[0], states[0] = 0.0, np.concatenate([q0, v0])
    y = states[0]
    recorded = 1
    truncated = False
    t = 0.0
    for step in range(n_steps):
        try:
            k1 = rate(y)
            k2 = rate(y + 0.5 * dt * k1)
            k3 = rate(y + 0.5 * dt * k2)
            k4 = rate(y + dt * k3)
        except ChartExit:
            truncated = True
            break
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        if (step + 1) % record_every == 0 or step == n_steps - 1:
            times[recorded], states[recorded] = t, y
            recorded += 1

    times, qs, vs = times[:recorded], states[:recorded, :d].copy(), states[:recorded, d:].copy()
    try:
        g = metric.lower(qs)
    except ChartExit:
        # every other recorded point started an evaluated step, so only the
        # last can lie past an open chart's edge; it gets the identity
        g = np.concatenate([metric.lower(qs[:-1]), np.eye(d)[None]])
    return Trajectory(times, qs, vs, _bilinear(vs, g, vs), truncated)


def _step_count(dt, T):
    """round(T / dt) RK4 steps, refused unless 0 < dt <= T and T / dt <= STEP_LIMIT."""
    if not 0 < dt <= T:
        raise ValueError("need dt > 0 and T >= dt")
    if T / dt > STEP_LIMIT:
        raise ValueError(f"T / dt = {T / dt:.7g} RK4 steps exceeds the step limit {STEP_LIMIT}")
    return int(round(T / dt))


@dataclass(frozen=True, eq=False)
class SpacetimeMetric:
    """Block spacetime metric diag(g00, g_t) on time samples.

    fields holds the spatial inverse-metric samples (M, n_sites, d, d);
    g00 is the fixed upper lapse entry g^00 (-1 for the Lorentzian lift,
    +1 for the Euclidean variant used in sign-independence checks), so
    the lower entry is g_00 = 1 / g00.  g00 must be finite and nonzero,
    and the times finite and strictly increasing.
    """

    lattice: object
    times: np.ndarray
    fields: np.ndarray
    g00: float = -1.0

    def __post_init__(self):
        if not (np.isfinite(self.g00) and self.g00 != 0):
            raise LatticeError(f"g00 must be finite and nonzero, got {self.g00}")
        if not (np.isfinite(self.times).all() and (np.diff(self.times) > 0).all()):
            raise LatticeError("metric sample times must be finite and strictly increasing")

    @property
    def n_samples(self):
        return len(self.times)

    def is_static(self):
        return self.n_samples < 2 or bool(
            np.all(self.fields == self.fields[0])
        )


def lorentzian_lift(lattice, samples, times=None, g00=-1.0):
    """Lift a series of spatial metric samples to a block spacetime metric.

    Every sample must be a MetricField of the lattice (metric_field); the
    upper lapse entry is exactly g^00 = g00 with zero shift.
    """
    fields = np.asarray(samples, dtype=float)
    if fields.ndim == 3:
        fields = fields[None]
    for sample in fields:
        metric_field(lattice, sample)
    if times is None:
        times = np.arange(len(fields), dtype=float)
    times = np.asarray(times, dtype=float)
    if len(times) != len(fields) or len(fields) == 0:
        raise LatticeError(f"need one metric sample per time, at least one; got {len(fields)} "
                           f"on {len(times)} times")
    return SpacetimeMetric(lattice=lattice, times=times, fields=fields, g00=g00)


def zeroth_residual(st_metric, trajectory):
    """Zeroth geodesic-equation residual r(t) = 1/2 dg_ij/dt qdot^i qdot^j.

    The trajectory is parametrized by coordinate time (q0 = t, so
    qddot^0 = 0); dg/dt comes from central differences over the metric's
    time samples, evaluated spatially at the trajectory points.  A
    nonzero residual is the obstruction to interpreting time-dependent
    metrics through this nonrelativistic lift.
    """
    lat = st_metric.lattice
    if st_metric.is_static():
        return np.zeros(len(trajectory.times))
    if st_metric.n_samples < 3:
        raise LatticeError(
            "time-dependent metric needs at least 3 time samples for "
            "central differences"
        )
    ts = st_metric.times
    s = np.rint((trajectory.times - ts[0]) / (ts[1] - ts[0])).astype(int)
    s = np.clip(s, 1, st_metric.n_samples - 2)
    ends = np.stack([s + 1, s - 1], axis=1)
    g = np.empty(ends.shape + (lat.ndim, lat.ndim))
    # one lower call per time sample, on the points whose difference uses it
    for m in np.unique(ends):
        hit = ends == m
        g[hit] = LatticeMetricInterpolant(lat, st_metric.fields[m]).lower(
            trajectory.positions[hit.any(axis=1)]
        )
    dg = (g[:, 0] - g[:, 1]) / (ts[s + 1] - ts[s - 1])[:, None, None]
    return _bilinear(0.5 * trajectory.velocities, dg, trajectory.velocities)
