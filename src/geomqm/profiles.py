"""Named closed-form field profiles for scenario configs.

Profiles are small dictionaries {profile: name, ...parameters} resolved
against a lattice into array expressions: callables mapping chart points
X of shape (..., d) to values of shape (...).  No expression language:
every profile is a fixed closed form, which keeps scenario runs
deterministic and the config schema finite.  `_PROFILES` lists every
kind's parameters; the grammar in `geomqm schema` is printed from it.

    constant       value
    zero
    sine           base + amplitude * sin(2 pi periods x_axis / L + phase)
    gaussian_bump  base + amplitude * exp(-((x_axis - center) / width)^2 / 2),
                   center and width are fractions of the axis extent L
    polynomial     sum_i coeffs[i] * x_axis^i
    linear         1 + rate * t: the time scale, for fields.time.scale only
"""

from __future__ import annotations

import numpy as np

from ._config import POSITIVE, REQUIRED, ConfigError, Key, read_keys
from .holonomy import flat_connection
from .lattice import connection_from_components


_PROFILES = {  # every axis lies in 0..d-1
    "constant": [Key("value", "float", REQUIRED)],
    "zero": [],
    "sine": [Key("base", "float", 0.0), Key("amplitude", "float", REQUIRED),
             Key("axis", "int", 0), Key("periods", "float", 1.0), Key("phase", "float", 0.0)],
    "gaussian_bump": [Key("base", "float", 0.0), Key("amplitude", "float", REQUIRED),
                      Key("center", "float", 0.5), Key("width", "float", 1.0 / 6.0, POSITIVE),
                      Key("axis", "int", 0)],
    "polynomial": [Key("coeffs", "list of float", REQUIRED, ("nonempty", bool)),
                   Key("axis", "int", 0)],
    "linear": [Key("rate", "float", 0.0)],
}
_SPACE_KINDS = tuple(kind for kind in _PROFILES if kind != "linear")


def _read_profile(spec, path, kinds):
    """(kind, parameters with defaults filled in) of a profile dict."""
    if not isinstance(spec, dict) or "profile" not in spec:
        raise ConfigError(f"{path}: expected a dict with a 'profile' key")
    kind = spec["profile"]
    if kind not in kinds:
        raise ConfigError(f"{path}: unknown profile {kind!r}, expected one of {', '.join(kinds)}")
    params = {name: value for name, value in spec.items() if name != "profile"}
    return kind, read_keys(params, _PROFILES[kind], f"{path}.")


def _grammar(name, kinds):
    alternatives = []
    for kind in kinds:
        params = "".join(f", {key.path}: <{key.kind}"
                         f"{'' if key.default is REQUIRED else f' = {key.default}'}>"
                         for key in _PROFILES[kind])
        alternatives.append(f"{{profile: {kind}{params}}}")
    return f"{name} ::= " + f"\n{' ' * len(name)}   | ".join(alternatives) + "\n"


# The `profile ::=` and `scale ::=` lines of `geomqm schema`.
GRAMMAR = _grammar("profile", _SPACE_KINDS) + _grammar("scale", ("linear",))


def resolve_profile(spec, lattice, path="profile"):
    """Profile dict -> callable mapping points X (..., d) to values (...)."""
    if spec is None:
        spec = {"profile": "zero"}
    kind, p = _read_profile(spec, path, _SPACE_KINDS)
    if kind == "constant":
        value = p["value"]
        return lambda X: np.full(X.shape[:-1], value)
    if kind == "zero":
        return lambda X: np.zeros(X.shape[:-1])
    axis = p["axis"]
    if not 0 <= axis < lattice.ndim:
        raise ConfigError(f"{path}.axis: {axis} outside 0..{lattice.ndim - 1}")
    if kind == "sine":
        base, amplitude, periods, phase = p["base"], p["amplitude"], p["periods"], p["phase"]
        L = lattice.axis_extent(axis)
        return lambda X: base + amplitude * np.sin(
            2.0 * np.pi * periods * X[..., axis] / L + phase
        )
    if kind == "gaussian_bump":
        base, amplitude = p["base"], p["amplitude"]
        L = lattice.axis_extent(axis)
        center = p["center"] * L
        width = p["width"] * L
        periodic = lattice.periodic[axis]
        span = lattice.sizes[axis] * lattice.spacings[axis]

        def fn(X):
            dx = X[..., axis] - center
            if periodic:
                dx = (dx + span / 2) % span - span / 2
            return base + amplitude * np.exp(-0.5 * (dx / width) ** 2)

        return fn
    coeffs = p["coeffs"]
    return lambda X: np.polyval(coeffs[::-1], X[..., axis])


def scalar_from_profile(lattice, spec, path="field"):
    return resolve_profile(spec, lattice, path)(lattice.positions)


def metric_profile(lattice, component_specs):
    """Inverse metric from per-component profiles keyed 'k,l' (upper
    triangle): a callable mapping points X (..., d) to g^kl (..., d, d).

    Unspecified diagonal components are 1, off-diagonals 0.
    """
    d = lattice.ndim
    components = {}
    for key, spec in (component_specs or {}).items():
        try:
            k, l = (int(p) for p in str(key).split(","))
        except ValueError as exc:
            raise ConfigError(f"fields.metric: bad component key {key!r}") from exc
        if not 0 <= k <= l < d or (k, l) in components:  # else '1,0' overwrites '0,1'
            raise ConfigError(f"fields.metric: component {key!r}: need 'k,l' with "
                              f"0 <= k <= l < {d}, each pair once")
        path = f"fields.metric.components.{key}"
        components[k, l] = resolve_profile(spec, lattice, path)

    eye = np.eye(d)

    def g(X):
        out = np.empty(X.shape[:-1] + (d, d))
        out[...] = eye
        for (k, l), fn in components.items():
            out[..., k, l] = out[..., l, k] = fn(X)
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
            raise ConfigError(f"fields.connection.components: need {lattice.ndim} "
                              "per-axis profiles")
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
    _, p = _read_profile(spec, "fields.time.scale", ("linear",))
    rate = p["rate"]
    return lambda t: 1.0 + rate * t
