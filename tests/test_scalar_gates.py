"""Public entry points refuse a scalar argument that is not finite, and a
count that is not an integer (a bool is not one), with their own error
class naming the parameter.  NaN fails every comparison, so a check
written as `x <= 0` lets it through; each gate is written as
`not 0 < x < inf`.  The same table holds the other library refusals
that no document reaches.  Likewise geodesic_integrate refuses a start
position or velocity of the wrong shape, naming it."""

import pathlib
import tempfile

import numpy as np
import pytest

from geomqm import (
    AnalyticMetric,
    Cochain,
    ComplexError,
    LatticeError,
    LatticeSpec,
    OperatorError,
    PhaseAmbiguity,
    ab_spectrum,
    build_hamiltonian,
    build_lattice,
    build_spacetime_complex,
    chern_number,
    constant_metric,
    coordinate_cure_residual,
    current,
    default_test_vector,
    flat_connection,
    flatness_defect,
    geodesic_integrate,
    heisenberg_evolve,
    heisenberg_residual,
    hodge,
    hodge_factors,
    link_average_metric,
    load_operator,
    lorentzian_lift,
    peierls_decompose,
    plaquette_sums,
    propagator,
    reconstruction_report,
    roundtrip_report,
    row_sum_field,
    tree_gauge_potential,
    unitarity_defect,
)
from geomqm.evolution import suggested_steps


def _ring():
    return build_lattice(LatticeSpec("ring", (6,), (1.0,)))


def _heisenberg(t, delta):
    lat = _ring()
    H = build_hamiltonian(lat, constant_metric(lat), None, None, 1.0)
    return heisenberg_residual(H, lat.positions[:, 0], t, delta)


def _heisenberg_field(a):
    return heisenberg_residual(_hamiltonian(1.0), a, 1.0, 0.1)


def _hamiltonian(m):
    lat = _ring()
    return build_hamiltonian(lat, constant_metric(lat), None, None, m)


def _reconstruction(m):
    return reconstruction_report(_ring(), _hamiltonian(1.0), m)


def _edited_hamiltonian(i, j, value):
    """The ring's H, dense, with entry (i, j) set to value."""
    H = _hamiltonian(1.0).mat.toarray()
    H[i, j] = value
    return H


def _one_imaginary_link():
    H = _edited_hamiltonian(0, 1, 0.5j)
    H[1, 0] = -0.5j  # Hermitian, with its 0-1 link phase on the pi/2 boundary
    return H


def _load(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "op.txt"
        path.write_text(text, encoding="utf-8")
        return load_operator(path)


def _hodge_of_a_box_0_cochain():
    cx = build_spacetime_complex(build_lattice(LatticeSpec("box3", (3, 3, 3), (1.0,) * 3)), 1, 1.0)
    return hodge(hodge_factors(cx), Cochain(cx, 0, np.zeros(cx.n_cells(0))))


def _hodge_of_a_ring_3_cochain():
    cx = build_spacetime_complex(_ring(), 2, 1.0)
    return hodge(hodge_factors(cx), Cochain(cx, 3, np.zeros(cx.n_cells(3))))


def _torus_complex():
    return build_spacetime_complex(build_lattice(LatticeSpec("torus", (3, 4), (1.0, 1.0))), 3, 1.0)


def _star_of_a_transposed_torus_lift():
    lat = build_lattice(LatticeSpec("torus", (4, 3), (1.0, 1.0)))
    return hodge_factors(_torus_complex(), lorentzian_lift(lat, constant_metric(lat)))


def _torus4():
    return build_lattice(LatticeSpec("torus", (4, 4), (1.0, 1.0)))


def _one_nan_link():
    theta = np.zeros(_torus4().n_links)
    theta[0] = np.nan  # the +e_0 link of site 0, on two plaquettes
    return theta


def _ring_lift(g00=-1.0, times=None):
    """A three-sample lift of the ring's metric, growing in time."""
    g = constant_metric(_ring())
    return lorentzian_lift(_ring(), [g, 2.0 * g, 3.0 * g], times, g00=g00)


def _current_of_a_1_cochain():
    cx = _torus_complex()
    return current(hodge_factors(cx), Cochain(cx, 1, np.zeros(cx.n_cells(1))))


def _cure(k, l, n=6):
    return coordinate_cure_residual(_ring(), _hamiltonian(1.0), k, l, np.ones(n) / np.sqrt(n))


def _flat_geodesic(eta=1e-3, dt=0.1, record_every=1):
    met = AnalyticMetric(lambda q: np.eye(1), ndim=1, default_eta=eta)
    return geodesic_integrate(met, [0.0], [1.0], dt, 1.0, record_every)


@pytest.mark.parametrize("call, error, match", [
    # seen before: computed as if t = delta; a raw OverflowError; NaN
    (lambda: _heisenberg(np.nan, 0.1), OperatorError, "need t >= delta"),
    (lambda: _heisenberg(np.inf, 0.1), OperatorError, "need t >= delta"),
    (lambda: _heisenberg(1.0, np.nan), OperatorError, "delta must be positive and finite"),
    # seen before: an all-NaN operator; an operator with no stored entries
    (lambda: _hamiltonian(np.nan), OperatorError, "mass must be positive and finite"),
    (lambda: _hamiltonian(np.inf), OperatorError, "mass must be positive and finite"),
    # seen before: g_rec all inf with positivity_ok True, at m = inf
    (lambda: _reconstruction(np.inf), OperatorError, "mass must be positive and finite"),
    (lambda: _reconstruction(np.nan), OperatorError, "mass must be positive and finite"),
    (lambda: _reconstruction(0.0), OperatorError, "mass must be positive and finite"),
    (lambda: _reconstruction(-1.0), OperatorError, "mass must be positive and finite"),
    # seen before: a finite matrix from delta = inf
    (lambda: propagator(_hamiltonian(1.0), 0.0, np.inf, 3), OperatorError, "need finite t1 < t2"),
    (lambda: propagator(_hamiltonian(1.0), np.nan, 1.0, 3), OperatorError, "need finite t1 < t2"),
    (lambda: propagator(_hamiltonian(1.0), -np.inf, 1.0, 3), OperatorError, "need finite t1 < t2"),
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
    # seen before: accepted as one step, and as a record every step
    (lambda: propagator(_hamiltonian(1.0), 0.0, 1.0, True), OperatorError,
     "steps must be an integer >= 1, got True"),
    (lambda: _flat_geodesic(record_every=True), ValueError,
     "record_every must be an integer >= 1, got True"),
    # seen before: a raw broadcast error after the decomposition; a NaN
    # residual; a 3x3 matrix; a defect of the 3x3 product
    (lambda: _heisenberg_field(np.zeros((6, 2))), OperatorError,
     r"a must have shape \(6,\) for a 6-site operator, got \(6, 2\)"),
    (lambda: _heisenberg_field(np.array([0.0, 1.0, np.nan, 3.0, 4.0, 5.0])), OperatorError,
     "a must be finite"),
    (lambda: heisenberg_evolve(np.ones(8), np.ones((8, 3))), OperatorError,
     r"U must be 8x8 for a of shape \(8,\), got \(8, 3\)"),
    (lambda: unitarity_defect(np.ones((8, 3))), OperatorError,
     r"u must be a square matrix, got shape \(8, 3\)"),
    # seen before: an (84, 2) coboundary; accepted; accepted; accepted
    (lambda: Cochain(_torus_complex(), 1, np.zeros((96, 2))), ComplexError,
     r"degree-1 cochain needs 96 values, got shape \(96, 2\)"),
    (lambda: Cochain(_torus_complex(), 1, np.full(96, "0.5")), ComplexError,
     "cochain values must be real numbers, got dtype <U3"),
    (lambda: Cochain(_torus_complex(), 1, np.full(96, np.nan)), ComplexError,
     "degree-1 cochain values must be finite"),
    (lambda: Cochain(_torus_complex(), 4, np.zeros(0)), ComplexError,
     "cochain degree must be an integer in 0..3, got 4"),
    # seen before: factors read at the sites of the (4, 3) torus
    (_star_of_a_transposed_torus_lift, ComplexError,
     r"metric lift is over LatticeSpec\(topology='torus', sizes=\(4, 3\), .*; the complex's "
     r"lattice is LatticeSpec\(topology='torus', sizes=\(3, 4\)"),
    # refusals of malformed data that no document and no other test reaches
    (lambda: Cochain(build_spacetime_complex(_ring(), 2, 1.0), 1, np.zeros(5)), ComplexError,
     "degree-1 cochain needs 18 values, got 5"),
    (lambda: heisenberg_evolve(np.ones(6), np.eye(5)), OperatorError, "dimension mismatch"),
    (lambda: row_sum_field(np.diag([1.0, 1j])), OperatorError, "row sums are not real"),
    (lambda: peierls_decompose(_ring(), _edited_hamiltonian(0, 1, -2.0)), OperatorError,
     "operator not Hermitian"),
    (lambda: _load("2 3\n0 0 1.0 0.0\n1 1 1.0 0.0\n"), OperatorError,
     "triplet row count 2 != header nnz 3"),
    (lambda: roundtrip_report(_ring(), constant_metric(_ring()), None, None, 1.0,
                              reference="site"), ValueError, "unknown reference 'site'"),
    (lambda: coordinate_cure_residual(_ring(), _one_imaginary_link(), 0, 0,
                                      default_test_vector(_ring())), PhaseAmbiguity,
     "phase on the pi/2 boundary"),
    (lambda: _hodge_of_a_box_0_cochain(), ComplexError, "no degree-4 cells"),
    # seen before: "no degree--1 cells in this complex"
    (_hodge_of_a_ring_3_cochain, ComplexError,
     "a degree-3 cochain has no dual on a 2-dimensional complex"),
    # seen before: a raw ValueError; nan; a raw IndexError (three times); zero sums
    (lambda: chern_number(_torus4(), _one_nan_link()), LatticeError,
     "link field has non-finite entries"),
    (lambda: flatness_defect(_torus4(), _one_nan_link()), LatticeError,
     "link field has non-finite entries"),
    (lambda: chern_number(_torus4(), np.zeros(5)), LatticeError,
     r"link field shape \(5,\) != \(128,\)"),
    (lambda: flatness_defect(_torus4(), np.zeros(5)), LatticeError,
     r"link field shape \(5,\) != \(128,\)"),
    (lambda: plaquette_sums(_torus4(), np.zeros(5)), LatticeError,
     r"link field shape \(5,\) != \(128,\)"),
    (lambda: plaquette_sums(_ring(), np.zeros(5)), LatticeError,
     r"link field shape \(5,\) != \(12,\)"),
    # seen before: the potential, the accepted input
    (_current_of_a_1_cochain, ComplexError, "need a 2-cochain, got degree 1"),
    # seen before: accepted, then non-finite Hodge factors of every degree
    # (a division by zero), or all-NaN and constant residuals
    (lambda: _ring_lift(g00=0.0), LatticeError, "g00 must be finite and nonzero, got 0.0"),
    (lambda: _ring_lift(g00=np.nan), LatticeError, "g00 must be finite and nonzero, got nan"),
    (lambda: _ring_lift(times=[0.0, 0.0, 0.0]), LatticeError,
     "metric sample times must be finite and strictly increasing"),
    (lambda: _ring_lift(times=[0.0, np.nan, 1.0]), LatticeError,
     "metric sample times must be finite and strictly increasing"),
    # seen before: a raw IndexError; accepted (a NaN gauge function)
    (lambda: tree_gauge_potential(_ring(), np.ones(3)), LatticeError,
     r"theta must have shape \(12,\), got \(3,\)"),
    (lambda: tree_gauge_potential(_ring(), np.full(12, np.nan)), LatticeError,
     "theta has non-finite entries"),
    # seen before: a raw IndexError; axis -1 read as the last axis; a raw IndexError
    (lambda: _cure(0, 3), OperatorError, r"axes must be in 0\.\.0, got k=0, l=3"),
    (lambda: _cure(-1, 0), OperatorError, r"axes must be in 0\.\.0, got k=-1, l=0"),
    (lambda: _cure(0, 0, n=5), OperatorError, r"psi must have shape \(6,\), got \(5,\)"),
    # seen before: a raw IndexError
    (lambda: link_average_metric(_ring(), np.ones((3, 1, 1))), LatticeError,
     r"g must have shape \(6, 1, 1\), got \(3, 1, 1\)"),
    # seen before: a raw TypeError; a scipy error that names no input; a NaN connection
    (lambda: ab_spectrum(_ring(), 1.0, [[0.1]]), LatticeError,
     r"alphas must be a 1-D array of angles, got shape \(1, 1\)"),
    (lambda: ab_spectrum(_ring(), 1.0, [np.nan]), LatticeError,
     r"holonomy targets must be finite, got \(nan,\)"),
    (lambda: flat_connection(_ring(), [np.nan]), LatticeError,
     r"holonomy targets must be finite, got \(nan,\)"),
    # seen before: a raw OverflowError; one step for a backward span
    (lambda: suggested_steps(_hamiltonian(1.0), 0.0, np.inf), OperatorError,
     "need finite t1 < t2, got 0.0 -> inf"),
    (lambda: suggested_steps(_hamiltonian(1.0), 1.0, 0.0), OperatorError,
     "need finite t1 < t2, got 1.0 -> 0.0"),
], ids=["heisenberg-t-nan", "heisenberg-t-inf", "heisenberg-delta-nan", "mass-nan", "mass-inf",
        "reconstruction-mass-inf", "reconstruction-mass-nan", "reconstruction-mass-zero",
        "reconstruction-mass-negative", "propagator-t2-inf", "propagator-t1-nan",
        "propagator-t1-minus-inf", "spacing-nan", "spacing-inf", "size-fractional", "size-nan", "n_t-fractional",
        "n_t-bool", "dt-nan", "dt-inf", "eta-nan", "geodesic-dt-nan", "propagator-steps-bool",
        "record_every-bool", "heisenberg-field-shape", "heisenberg-field-nan",
        "heisenberg-unitary-not-square", "unitarity-not-square", "cochain-2d", "cochain-strings",
        "cochain-nan", "cochain-degree-4", "hodge-metric-of-another-lattice", "cochain-length",
        "heisenberg-unitary-size", "row-sum-not-real", "peierls-not-hermitian",
        "operator-row-count", "roundtrip-reference", "cure-imaginary-link",
        "hodge-no-complement-cells", "hodge-degree-above-dimension", "chern-nan-link",
        "flatness-nan-link", "chern-field-length", "flatness-field-length",
        "plaquette-field-length", "plaquette-field-length-1d", "current-of-a-potential",
        "lift-g00-zero", "lift-g00-nan", "lift-times-repeated", "lift-times-nan",
        "tree-gauge-shape", "tree-gauge-nan", "cure-axis-past-d", "cure-axis-negative",
        "cure-psi-length", "link-average-metric-shape", "ab-spectrum-alphas-2d",
        "ab-spectrum-alpha-nan", "flat-connection-nan", "suggested-steps-t2-inf",
        "suggested-steps-backward"])
def test_non_finite_or_fractional_scalar_is_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("q0, v0, match", [
    # seen before: raw numpy broadcast errors; an integrator state stacked as
    # (q, v) reads the first two as q = (q0[0], v0[0]) and goes on
    ([1.0], [0.5, 0.1, 0.2], r"q0 must have shape \(2,\) on a 2-D metric, got \(1,\)"),
    ([1.0, 2.0], [0.5, 0.1, 0.2], r"v0 must have shape \(2,\) on a 2-D metric, got \(3,\)"),
    ([[1.0, 2.0]], [0.5, 0.1], r"q0 must have shape \(2,\) on a 2-D metric, got \(1, 2\)"),
    ([1.0, 2.0], 0.5, r"v0 must have shape \(2,\) on a 2-D metric, got \(\)"),
], ids=["q0-short", "v0-long", "q0-row", "v0-scalar"])
def test_geodesic_refuses_a_start_of_the_wrong_shape_before_the_first_step(q0, v0, match):
    met = AnalyticMetric(lambda q: pytest.fail("a step was taken"), ndim=2)
    with pytest.raises(ValueError, match=match):
        geodesic_integrate(met, q0, v0, 0.1, 1.0)
