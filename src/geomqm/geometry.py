"""Classical geometry induced by a metric: Christoffel symbols, geodesics,
the Lorentzian spacetime lift, and the time-dependence obstruction.

Metric evaluation goes through a small interface (``lower(q)`` returning
the lower-index matrix g_ij at chart point q).  Two providers:

  * LatticeMetricInterpolant: per-site inversion of a reconstructed
    inverse-metric field followed by multilinear interpolation over
    lattice cells (invert-then-interpolate), periodic wrap on periodic
    axes, chart errors outside open axes.
  * AnalyticMetric: a closed-form callable, used by scenario profiles
    where machine-precision conservation matters (a C0 interpolant has
    derivative jumps at cell walls that a 4th-order integrator would
    see).

Geodesics integrate q_ddot^k + Gamma^k_ij q_dot^i q_dot^j = 0 with
classic fixed-step 4th-order Runge-Kutta; Christoffel symbols come from
central differences of the metric provider.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeError


class ChartExit(ValueError):
    """Evaluation or trajectory left the open-boundary chart."""


@dataclass(frozen=True)
class GeodesicState:
    """Chart position and velocity."""

    q: np.ndarray
    v: np.ndarray


class AnalyticMetric:
    """Metric provider backed by a closed-form q -> g_ij callable."""

    def __init__(self, func, ndim, default_eta=1e-3, bounds=None):
        self._func = func
        self.ndim = ndim
        self.default_eta = default_eta
        self.bounds = bounds  # optional ((lo, hi) or None) per axis

    def lower(self, q):
        q = np.asarray(q, dtype=float)
        if self.bounds is not None:
            for k, b in enumerate(self.bounds):
                if b is not None and not (b[0] <= q[k] <= b[1]):
                    raise ChartExit(f"coordinate {k} = {q[k]:g} outside {b}")
        g = np.asarray(self._func(q), dtype=float)
        return g


class LatticeMetricInterpolant:
    """Multilinear interpolation of the lower metric over lattice cells.

    Site values are matched exactly at the nodes; convex combinations of
    positive-definite matrices keep the interpolant positive definite
    everywhere it is evaluated.
    """

    def __init__(self, lattice, g_inverse):
        self.lattice = lattice
        self.ndim = lattice.ndim
        g = np.asarray(g_inverse, dtype=float)
        if np.min(np.linalg.eigvalsh(g)) <= 0:
            raise LatticeError("inverse metric must be positive definite")
        self._lower = np.linalg.inv(g)
        self.default_eta = min(lattice.spacings) / 4.0

    @classmethod
    def from_lower(cls, lattice, lower):
        """Interpolant over already-inverted (lower-index) site matrices."""
        obj = cls.__new__(cls)
        obj.lattice = lattice
        obj.ndim = lattice.ndim
        obj._lower = np.asarray(lower, dtype=float)
        obj.default_eta = min(lattice.spacings) / 4.0
        return obj

    def _cell_weights(self, q):
        lat = self.lattice
        idx0, frac = [], []
        for k in range(self.ndim):
            u = q[k] / lat.spacings[k]
            n = lat.sizes[k]
            if lat.periodic[k]:
                u %= n
                i0 = int(np.floor(u)) % n
                f = u - np.floor(u)
            else:
                if u < -1e-9 or u > n - 1 + 1e-9:
                    raise ChartExit(
                        f"coordinate {k} = {q[k]:g} outside chart "
                        f"[0, {(n - 1) * lat.spacings[k]:g}]"
                    )
                u = min(max(u, 0.0), float(n - 1))
                i0 = min(int(np.floor(u)), n - 2)
                f = u - i0
            idx0.append(i0)
            frac.append(f)
        sites, weights = [], []
        for corner in range(1 << self.ndim):
            coord = []
            w = 1.0
            for k in range(self.ndim):
                bit = (corner >> k) & 1
                ik = idx0[k] + bit
                if lat.periodic[k]:
                    ik %= lat.sizes[k]
                coord.append(ik)
                w *= frac[k] if bit else 1.0 - frac[k]
            sites.append(lat.site_index(coord))
            weights.append(w)
        return np.asarray(sites), np.asarray(weights)

    def lower(self, q):
        q = np.asarray(q, dtype=float)
        sites, weights = self._cell_weights(q)
        return np.einsum("c,cij->ij", weights, self._lower[sites])


def christoffel(metric, q, eta=None):
    """Christoffel symbols Gamma^k_ij at q by central differencing.

    Gamma^k_ij = 1/2 sum_l g^kl (d_i g_lj + d_j g_li - d_l g_ij);
    symmetric in the lower indices (torsion-free Levi-Civita).
    """
    q = np.asarray(q, dtype=float)
    if eta is None:
        eta = metric.default_eta
    if eta <= 0:
        raise ValueError("eta must be positive")
    d = metric.ndim
    g0 = metric.lower(q)
    dg = np.empty((d, d, d))
    for l in range(d):
        e = np.zeros(d)
        e[l] = eta
        dg[l] = (metric.lower(q + e) - metric.lower(q - e)) / (2.0 * eta)
    ginv = np.linalg.inv(g0)
    # dg[l, i, j] = d_l g_ij
    bracket = (
        np.einsum("ilj->lij", dg)   # d_i g_lj
        + np.einsum("jli->lij", dg)  # d_j g_li
        - dg                         # d_l g_ij
    )
    return 0.5 * np.einsum("kl,lij->kij", ginv, bracket)


@dataclass(frozen=True)
class Trajectory:
    """Sampled geodesic; truncated marks an open-chart exit."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    speed2: np.ndarray
    truncated: bool = False

    def speed2_drift(self):
        return float(np.max(np.abs(self.speed2 - self.speed2[0])))


def geodesic_integrate(metric, state0, dt, T, eta=None, record_every=1):
    """Integrate the geodesic equation with classic RK4.

    Returns a Trajectory sampled every record_every steps (plus start and
    final point); speed2 tracks g(q_dot, q_dot) along the way.  On open
    charts the trajectory stops with truncated=True instead of
    extrapolating beyond the boundary.
    """
    if dt <= 0 or T < dt:
        raise ValueError("need dt > 0 and T >= dt")
    q = np.asarray(state0.q, dtype=float).copy()
    v = np.asarray(state0.v, dtype=float).copy()

    def acc(qq, vv):
        gamma = christoffel(metric, qq, eta)
        return -np.einsum("kij,i,j->k", gamma, vv, vv)

    n_steps = int(round(T / dt))
    times = [0.0]
    qs = [q.copy()]
    vs = [v.copy()]
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
            qs.append(q.copy())
            vs.append(v.copy())

    times = np.asarray(times)
    qs = np.asarray(qs)
    vs = np.asarray(vs)
    speed2 = np.empty(len(times))
    for i in range(len(times)):
        try:
            g = metric.lower(qs[i])
        except ChartExit:
            g = np.eye(metric.ndim)
        speed2[i] = vs[i] @ g @ vs[i]
    return Trajectory(times, qs, vs, speed2, truncated)


@dataclass(frozen=True, eq=False)
class SpacetimeMetric:
    """Block spacetime metric diag(g00, g_t) on time samples.

    fields holds the spatial inverse-metric samples (M, n_sites, d, d);
    g00 is the fixed lapse entry (-1 for the Lorentzian lift, +1 for the
    Euclidean variant used in sign-independence checks).
    """

    lattice: object
    times: np.ndarray
    fields: np.ndarray
    g00: float = -1.0

    @property
    def n_samples(self):
        return len(self.times)

    def lower_fields(self):
        return np.linalg.inv(self.fields)

    def lower_block(self, site, sample):
        d = self.lattice.ndim
        block = np.zeros((d + 1, d + 1))
        block[0, 0] = self.g00
        block[1:, 1:] = np.linalg.inv(self.fields[sample][site])
        return block

    def is_static(self):
        return self.n_samples < 2 or bool(
            np.all(self.fields == self.fields[0])
        )


def lorentzian_lift(lattice, samples, times=None, g00=-1.0):
    """Lift a series of spatial metric samples to a block spacetime metric.

    Every sample must be positive definite; the lapse block is exactly
    diag(g00) with zero shift.
    """
    fields = np.asarray(samples, dtype=float)
    if fields.ndim == 3:
        fields = fields[None]
    if np.min(np.linalg.eigvalsh(fields)) <= 0:
        raise LatticeError("all metric samples must be positive definite")
    if times is None:
        times = np.arange(fields.shape[0], dtype=float)
    times = np.asarray(times, dtype=float)
    if len(times) != fields.shape[0]:
        raise LatticeError("sample count does not match time grid")
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
    lowers = st_metric.lower_fields()
    interp = [
        LatticeMetricInterpolant.from_lower(lat, lowers[s])
        for s in range(st_metric.n_samples)
    ]
    ts = st_metric.times
    out = np.empty(len(trajectory.times))
    for i, t in enumerate(trajectory.times):
        s = int(round((t - ts[0]) / (ts[1] - ts[0])))
        s = min(max(s, 1), st_metric.n_samples - 2)
        q = trajectory.positions[i]
        dg = (interp[s + 1].lower(q) - interp[s - 1].lower(q)) / (ts[s + 1] - ts[s - 1])
        v = trajectory.velocities[i]
        out[i] = 0.5 * v @ dg @ v
    return out
