"""Public entry points refuse a scalar argument that is not finite, and a
count that is not an integer, with their own error class naming the
parameter.  NaN fails every comparison, so a check written as `x <= 0`
lets it through; each gate is written as `not 0 < x < inf`."""

import numpy as np
import pytest

from geomqm import (
    AnalyticMetric,
    ComplexError,
    LatticeError,
    LatticeSpec,
    OperatorError,
    build_hamiltonian,
    build_lattice,
    build_spacetime_complex,
    constant_metric,
    geodesic_integrate,
    heisenberg_residual,
)


def _ring():
    return build_lattice(LatticeSpec("ring", (6,), (1.0,)))


def _heisenberg(t, delta):
    lat = _ring()
    H = build_hamiltonian(lat, constant_metric(lat), None, None, 1.0)
    return heisenberg_residual(H, lat.positions[:, 0], t, delta)


def _hamiltonian(m):
    lat = _ring()
    return build_hamiltonian(lat, constant_metric(lat), None, None, m)


def _flat_geodesic(eta=1e-3, dt=0.1):
    met = AnalyticMetric(lambda q: np.eye(1), ndim=1, default_eta=eta)
    return geodesic_integrate(met, [0.0], [1.0], dt, 1.0)


@pytest.mark.parametrize("call, error, match", [
    # seen before: computed as if t = delta; a raw OverflowError; NaN
    (lambda: _heisenberg(np.nan, 0.1), OperatorError, "need t >= delta"),
    (lambda: _heisenberg(np.inf, 0.1), OperatorError, "need t >= delta"),
    (lambda: _heisenberg(1.0, np.nan), OperatorError, "delta must be positive and finite"),
    # seen before: an all-NaN operator; an operator with no stored entries
    (lambda: _hamiltonian(np.nan), OperatorError, "mass must be positive and finite"),
    (lambda: _hamiltonian(np.inf), OperatorError, "mass must be positive and finite"),
    # seen before: accepted (a NaN spacing builds a NaN Hamiltonian); 3.7
    # read as 3; a raw ValueError
    (lambda: LatticeSpec("ring", (6,), (np.nan,)), LatticeError, "spacings must be positive"),
    (lambda: LatticeSpec("ring", (6,), (np.inf,)), LatticeError, "spacings must be positive"),
    (lambda: LatticeSpec("ring", (3.7,), (1.0,)), LatticeError, "sizes must be integers"),
    (lambda: LatticeSpec("ring", (np.nan,), (1.0,)), LatticeError, "sizes must be integers"),
    # seen before: a raw IndexError; a raw TypeError; accepted
    (lambda: build_spacetime_complex(_ring(), 2.5, 1.0), ComplexError, "count of time samples"),
    (lambda: build_spacetime_complex(_ring(), True, 1.0), ComplexError, "count of time samples"),
    (lambda: build_spacetime_complex(_ring(), 3, np.nan), ComplexError, "dt must be positive"),
    (lambda: build_spacetime_complex(_ring(), 3, np.inf), ComplexError, "dt must be positive"),
    # seen before: a trajectory truncated at its start; a raw ValueError
    (lambda: _flat_geodesic(eta=np.nan), ValueError, "eta must be positive and finite"),
    (lambda: _flat_geodesic(dt=np.nan), ValueError, "need dt > 0 and T >= dt"),
], ids=["heisenberg-t-nan", "heisenberg-t-inf", "heisenberg-delta-nan", "mass-nan", "mass-inf",
        "spacing-nan", "spacing-inf", "size-fractional", "size-nan", "n_t-fractional",
        "n_t-bool", "dt-nan", "dt-inf", "eta-nan", "geodesic-dt-nan"])
def test_non_finite_or_fractional_scalar_is_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()
