"""Named closed-form field profiles for scenario configs.

Profiles are small dictionaries {profile: name, ...numeric parameters}
resolved against a lattice into array expressions: callables mapping
chart points X of shape (..., d) to values of shape (...).  No
expression language: every profile is a fixed closed form, which keeps
scenario runs deterministic and the config schema finite.

    constant       {value}
    zero           {}
    sine           {base, amplitude, axis, periods, phase}
                   base + amplitude * sin(2 pi periods x_axis / L + phase)
    gaussian_bump  {base, amplitude, center, width, axis}
                   center/width are fractions of the axis extent
    polynomial     {coeffs, axis}     sum_i coeffs[i] * x_axis^i
"""

from __future__ import annotations

import numpy as np

from .holonomy import flat_connection
from .lattice import connection_from_components


class ProfileError(ValueError):
    """Unknown profile name or bad profile parameters."""


def resolve_profile(spec, lattice, path="profile"):
    """Profile dict -> callable mapping points X (..., d) to values (...)."""
    if spec is None:
        spec = {"profile": "zero"}
    if not isinstance(spec, dict) or "profile" not in spec:
        raise ProfileError(f"{path}: expected a dict with a 'profile' key")
    kind = spec["profile"]
    params = {k: v for k, v in spec.items() if k != "profile"}

    def need(name, default=None):
        if name in params:
            return float(params.pop(name))
        if default is not None:
            return float(default)
        raise ProfileError(f"{path}: profile {kind!r} needs parameter {name!r}")

    def need_axis():
        axis = int(need("axis", 0))
        if not 0 <= axis < lattice.ndim:
            raise ProfileError(f"{path}: axis {axis} outside 0..{lattice.ndim - 1}")
        return axis

    if kind == "constant":
        value = need("value")
        fn = lambda X: np.full(X.shape[:-1], value)  # noqa: E731
    elif kind == "zero":
        fn = lambda X: np.zeros(X.shape[:-1])  # noqa: E731
    elif kind == "sine":
        base = need("base", 0.0)
        amplitude = need("amplitude")
        axis = need_axis()
        periods = need("periods", 1.0)
        phase = need("phase", 0.0)
        L = lattice.axis_extent(axis)
        fn = lambda X: base + amplitude * np.sin(  # noqa: E731
            2.0 * np.pi * periods * X[..., axis] / L + phase
        )
    elif kind == "gaussian_bump":
        base = need("base", 0.0)
        amplitude = need("amplitude")
        axis = need_axis()
        L = lattice.axis_extent(axis)
        center = need("center", 0.5) * L
        width = need("width", 1.0 / 6.0) * L
        periodic = lattice.periodic[axis]
        span = lattice.sizes[axis] * lattice.spacings[axis]

        def fn(X):
            dx = X[..., axis] - center
            if periodic:
                dx = (dx + span / 2) % span - span / 2
            return base + amplitude * np.exp(-0.5 * (dx / width) ** 2)

    elif kind == "polynomial":
        coeffs = [float(c) for c in params.pop("coeffs", [])]
        if not coeffs:
            raise ProfileError(f"{path}: polynomial needs nonempty coeffs")
        axis = need_axis()
        fn = lambda X: np.polyval(coeffs[::-1], X[..., axis])  # noqa: E731
    else:
        raise ProfileError(f"{path}: unknown profile {kind!r}")

    if params:
        raise ProfileError(f"{path}: unused parameters {sorted(params)}")
    return fn


def scalar_from_profile(lattice, spec, path="field"):
    return resolve_profile(spec, lattice, path)(lattice.positions)


def metric_profile(lattice, component_specs):
    """Inverse metric from per-component profiles keyed 'k,l' (upper
    triangle): a callable mapping points X (..., d) to g^kl (..., d, d).

    Unspecified diagonal components are 1, off-diagonals 0.
    """
    d = lattice.ndim
    components = []
    for key, spec in (component_specs or {}).items():
        try:
            k, l = (int(p) for p in str(key).split(","))
        except ValueError as exc:
            raise ProfileError(f"fields.metric: bad component key {key!r}") from exc
        if not (0 <= k < d and 0 <= l < d):
            raise ProfileError(f"fields.metric: component {key!r} outside dimension {d}")
        components.append((k, l, resolve_profile(spec, lattice, f"fields.metric.{key}")))

    def g(X):
        out = np.empty(X.shape[:-1] + (d, d))
        out[...] = np.eye(d)
        for k, l, fn in components:
            vals = fn(X)
            out[..., k, l] = vals
            out[..., l, k] = vals
        return out

    return g


def metric_from_profiles(lattice, component_specs):
    """MetricField: the inverse-metric profile at the lattice sites."""
    return metric_profile(lattice, component_specs)(lattice.positions)


def connection_from_profiles(lattice, connection_spec):
    """LinkField of integrated phases from component profiles + holonomies."""
    if not connection_spec:
        return np.zeros(lattice.n_links)
    comps = connection_spec.get("components")
    theta = np.zeros(lattice.n_links)
    if comps:
        if len(comps) != lattice.ndim:
            raise ProfileError(
                f"fields.connection.components: need {lattice.ndim} per-axis profiles"
            )
        fns = [
            resolve_profile(c, lattice, f"fields.connection.components[{k}]")
            for k, c in enumerate(comps)
        ]
        theta = connection_from_components(lattice, fns)
    holonomies = connection_spec.get("holonomies")
    if holonomies:
        theta = theta + flat_connection(lattice, tuple(float(a) for a in holonomies))
    return theta


def time_scale_function(spec):
    """Scale factor over time: 1 without a spec, 1 + rate * t for
    {profile: linear, rate}."""
    if spec is None:
        return lambda t: 1.0
    if not isinstance(spec, dict) or spec.get("profile") != "linear":
        raise ProfileError(f"fields.time.scale: expected {{profile: linear, rate: <float>}}, "
                           f"got {spec!r}")
    rate = float(spec.get("rate", 0.0))
    return lambda t: 1.0 + rate * t
