from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from geomqm import (
    Cochain,
    ComplexError,
    LatticeError,
    LatticeSpec,
    assemble_potential,
    build_lattice,
    build_spacetime_complex,
    constant_metric,
    continuity_defect,
    current,
    d0,
    d_cochain,
    hodge,
    hodge_factors,
    lorentzian_lift,
)
from geomqm import maxwell
from test_complex_oracles import incidence_csr


def zero_cochain(cx, k):
    return Cochain(cx, k, np.zeros(cx.n_cells(k)))


def cylinder_complex(nx=6, ny=5, n_t=4, dt=0.5):
    lat = build_lattice(LatticeSpec("cylinder", (nx, ny), (1.0, 1.0)))
    return lat, build_spacetime_complex(lat, n_t, dt)


def random_series(lat, n_t, amplitude, rng):
    canon = lat.link_reverse > np.arange(lat.n_links)
    A_series, phi_series = [], []
    for _ in range(n_t):
        theta = np.zeros(lat.n_links)
        vals = rng.normal(0.0, amplitude, int(canon.sum()))
        theta[canon] = vals
        theta[lat.link_reverse[canon]] = -vals
        A_series.append(theta)
        phi_series.append(rng.normal(0.0, amplitude, lat.n_sites))
    return A_series, phi_series


def flat_metric(lat, n_t, dt, g00=-1.0):
    g = constant_metric(lat)
    series = np.broadcast_to(g, (n_t,) + g.shape).copy()
    return lorentzian_lift(lat, series, np.arange(n_t) * dt, g00=g00)


# ------------------------------------------------------------ structure

def test_incidence_composition_is_zero():
    _, cx = cylinder_complex()
    D0, D1, D2 = (incidence_csr(cx, k) for k in range(3))
    assert (D1 @ D0).nnz == 0 or np.max(np.abs((D1 @ D0).data)) == 0.0
    assert (D2 @ D1).nnz == 0 or np.max(np.abs((D2 @ D1).data)) == 0.0


def test_dd_vanishes_on_random_cochains():
    _, cx = cylinder_complex()
    rng = np.random.default_rng(0)
    f = Cochain(cx, 0, rng.normal(size=cx.n_cells(0)))
    ddf = d_cochain(d_cochain(f))
    assert np.max(np.abs(ddf.values)) <= 1e-13
    w = Cochain(cx, 1, rng.normal(size=cx.n_cells(1)))
    ddw = d_cochain(d_cochain(w))
    assert np.max(np.abs(ddw.values)) <= 1e-13


def test_single_edge_indicator_coboundary():
    _, cx = cylinder_complex()
    w = zero_cochain(cx, 1)
    w.values[37] = 1.0
    dw = d_cochain(w)
    incident = incidence_csr(cx, 1)[:, 37].toarray().ravel()
    assert np.array_equal(dw.values, incident)
    assert set(np.unique(dw.values)) <= {-1.0, 0.0, 1.0}
    assert np.any(dw.values != 0.0)


def test_coboundary_stays_on_the_cochain_s_own_complex():
    # equal cell counts in every degree, but other neighbours: the coboundary
    # must read the cochain's incidence and label the result with its complex
    first, second = (build_spacetime_complex(build_lattice(LatticeSpec("torus", sizes, (1.0, 1.0))),
                                             3, 1.0) for sizes in ((3, 4), (4, 3)))
    assert all(first.n_cells(k) == second.n_cells(k) for k in range(4))
    w = Cochain(second, 1, np.random.default_rng(5).normal(size=second.n_cells(1)))
    dw = d_cochain(w)
    assert dw.complex is w.complex and dw.degree == 2
    assert np.array_equal(dw.values, incidence_csr(second, 1) @ w.values)
    assert not np.array_equal(dw.values, incidence_csr(first, 1) @ w.values)


def test_unsupported_degree_rejected():
    lat, cx = cylinder_complex()
    w = zero_cochain(cx, 3)
    with pytest.raises(ComplexError):
        d_cochain(w)


# ------------------------------------------------------------ potential

def test_zero_potential_assembles_zero():
    lat, cx = cylinder_complex()
    zeros_A = [np.zeros(lat.n_links)] * cx.n_t
    zeros_phi = [np.zeros(lat.n_sites)] * cx.n_t
    pot = assemble_potential(cx, zeros_A, zeros_phi)
    assert np.max(np.abs(pot.values)) == 0.0


def test_static_pure_gauge_is_closed():
    lat, cx = cylinder_complex()
    chi = np.sin(np.arange(lat.n_sites) * 0.37)
    A = d0(lat, chi)
    pot = assemble_potential(cx, [A] * cx.n_t, [np.zeros(lat.n_sites)] * cx.n_t)
    F = d_cochain(pot)
    assert np.max(np.abs(F.values)) < 1e-13


def test_uniform_electrostatic_field():
    # phi = -E x, A = 0 on an interval: every (t,x) face carries E h dt
    E, h, dt = 0.7, 0.5, 0.25
    lat = build_lattice(LatticeSpec("interval", (6,), (h,)))
    cx = build_spacetime_complex(lat, 3, dt)
    phi = -E * lat.positions[:, 0]
    pot = assemble_potential(cx, [np.zeros(lat.n_links)] * 3, [phi] * 3)
    F = d_cochain(pot)
    assert np.allclose(F.values, E * h * dt, atol=1e-14)


def test_series_length_mismatch_rejected():
    lat, cx = cylinder_complex()
    with pytest.raises(ComplexError):
        assemble_potential(cx, [np.zeros(lat.n_links)] * 2,
                           [np.zeros(lat.n_sites)] * cx.n_t)


# Per bad sample series on ring (5,) x 3 samples (10 links, 5 sites): the
# series and the message the LatticeError carries.
BAD_SAMPLES = {
    "nan connection": ([np.full(10, np.nan)] * 3, [np.zeros(5)] * 3,
                       r"connection sample 0 must hold 10 finite values, shape \(10,\); "
                       r"got shape \(10,\)"),
    "short connection": ([np.zeros(10)] * 2 + [np.zeros(3)], [np.zeros(5)] * 3,
                         r"connection sample 2 must hold 10 finite values, shape \(10,\); "
                         r"got shape \(3,\)"),
    "long potential": ([np.zeros(10)] * 3, [np.zeros(7)] * 3,
                       r"scalar field shape \(7,\) != \(5,\)"),
}


@pytest.mark.parametrize("A_series, phi_series, message", list(BAD_SAMPLES.values()),
                         ids=list(BAD_SAMPLES))
def test_assemble_potential_refuses_a_bad_sample(A_series, phi_series, message):
    cx = build_spacetime_complex(build_lattice(LatticeSpec("ring", (5,), (1.0,))), 3, 0.5)
    with pytest.raises(LatticeError, match=message):
        assemble_potential(cx, A_series, phi_series)


def test_homogeneous_maxwell_random_ensemble():
    lat, cx = cylinder_complex(8, 8, 8, 0.5)
    rng = np.random.default_rng(42)
    for _ in range(10):
        A_series, phi_series = random_series(lat, 8, 0.4, rng)
        pot = assemble_potential(cx, A_series, phi_series)
        dF = d_cochain(d_cochain(pot))
        assert np.max(np.abs(dF.values)) <= 1e-12


def test_field_strength_gauge_invariant():
    lat, cx = cylinder_complex()
    rng = np.random.default_rng(1)
    A_series, phi_series = random_series(lat, cx.n_t, 0.3, rng)
    pot = assemble_potential(cx, A_series, phi_series)
    F = d_cochain(pot)
    chi = Cochain(cx, 0, rng.normal(size=cx.n_cells(0)))
    shifted = Cochain(cx, 1, pot.values + d_cochain(chi).values)
    F2 = d_cochain(shifted)
    assert np.max(np.abs(F.values - F2.values)) <= 1e-12


# ------------------------------------------------------------ hodge

def test_hodge_double_star_n2_lorentzian():
    lat = build_lattice(LatticeSpec("ring", (6,), (0.8,)))
    cx = build_spacetime_complex(lat, 4, 0.3)
    rng = np.random.default_rng(2)
    F = Cochain(cx, 2, rng.normal(size=cx.n_cells(2)))
    star = hodge_factors(cx)
    FF = hodge(star, hodge(star, F))
    assert np.max(np.abs(FF.values + F.values)) < 1e-12


def levi_civita_star_oracle(axes, gup, spacings):
    """Continuum formula for the diagonal star on an orthogonal metric."""
    n = len(gup)
    comp = tuple(a for a in range(n) if a not in axes)
    order = tuple(axes) + comp
    sign = 1
    order_list = list(order)
    for i in range(len(order_list)):
        for j in range(i + 1, len(order_list)):
            if order_list[i] > order_list[j]:
                sign = -sign
    sqrt_det = 1.0 / np.sqrt(abs(np.prod(gup)))
    coeff = sign * sqrt_det
    for mu in axes:
        coeff *= gup[mu] / spacings[mu]
    for nu in comp:
        coeff *= spacings[nu]
    return comp, coeff


def test_hodge_n4_time_face_sign():
    # * (dt ^ dx) lands on (dy ^ dz) with the -1 of the time index
    lat = build_lattice(LatticeSpec("box3", (3, 3, 3), (1.0, 1.0, 1.0)))
    cx = build_spacetime_complex(lat, 3, 1.0)
    faces = list(combinations(range(4), 2))
    anchor = int(cx.cell_table[2][np.ravel_multi_index((1, 1, 1), lat.sizes), faces.index((0, 1))])
    F = zero_cochain(cx, 2)
    F.values[anchor] = 1.0
    dual = hodge(hodge_factors(cx), F)
    comp, coeff = levi_civita_star_oracle((0, 1), (-1.0, 1.0, 1.0, 1.0), (1.0,) * 4)
    assert comp == (2, 3) and coeff == -1.0
    target = cx.cell_table[2][np.ravel_multi_index((1, 1, 1), lat.sizes), faces.index((2, 3))]
    assert dual.values[target] == coeff
    others = np.delete(dual.values, target)
    assert np.max(np.abs(others)) == 0.0


def test_hodge_matches_oracle_with_anisotropic_spacings():
    lat = build_lattice(LatticeSpec("box3", (3, 3, 3), (0.5, 0.8, 1.2)))
    dt = 0.3
    cx = build_spacetime_complex(lat, 3, dt)
    star = hodge_factors(cx)
    site = np.ravel_multi_index((1, 1, 1), lat.sizes)
    spac = (dt, 0.5, 0.8, 1.2)
    faces = list(combinations(range(4), 2))
    for axes in ((0, 1), (0, 2), (1, 2), (2, 3)):
        idx = cx.cell_table[2][site, faces.index(axes)]
        F = zero_cochain(cx, 2)
        F.values[idx] = 1.0
        dual = hodge(star, F)
        comp, coeff = levi_civita_star_oracle(axes, (-1.0, 1.0, 1.0, 1.0), spac)
        target = cx.cell_table[2][site, faces.index(comp)]
        assert abs(dual.values[target] - coeff) < 1e-14


def test_hodge_time_face_dual_invariant_under_dt():
    # physically rescaled F (integrated values scale with dt) keeps *F fixed
    lat = build_lattice(LatticeSpec("ring", (6,), (1.0,)))
    duals = []
    for dt in (0.2, 0.4):
        cx = build_spacetime_complex(lat, 3, dt)
        E_field = 0.9
        F = Cochain(cx, 2, np.full(cx.n_cells(2), E_field * 1.0 * dt))
        duals.append(hodge(hodge_factors(cx), F).values)
    v0 = duals[0][duals[0] != 0]
    v1 = duals[1][duals[1] != 0]
    assert np.allclose(np.sort(v0), np.sort(v1), atol=1e-14)


def position_dependent_metric(lat, n_t, dt, g00):
    g = constant_metric(lat)
    g[:, 0, 0] = 1.0 + 0.3 * np.sin(2 * np.pi * lat.positions[:, 0] / lat.axis_extent(0))
    g[:, 1, 1] = 1.5 + 0.2 * np.cos(2 * np.pi * lat.positions[:, 1] / lat.axis_extent(1))
    series = np.array([g * (1.0 + 0.1 * s) for s in range(n_t)])
    return lorentzian_lift(lat, series, np.arange(n_t) * dt, g00=g00)


@pytest.mark.parametrize("g00", [-1.0, 1.0, -4.0])
def test_double_star_is_a_sign_for_any_lapse(g00):
    # ** = (-1)^(k(n-k)) sign(det g) on every cell whose complement exists;
    # sqrt|det g| must include |g00| for this to hold off unit lapse
    lat, cx = cylinder_complex()
    met = position_dependent_metric(lat, cx.n_t, cx.dt, g00)
    F = Cochain(cx, 2, np.random.default_rng(3).normal(size=cx.n_cells(2)))
    star, flat = hodge_factors(cx, met), hodge_factors(cx)
    FF = hodge(star, hodge(star, F)).values
    kept = hodge(flat, hodge(flat, Cochain(cx, 2, np.ones(cx.n_cells(2))))).values != 0.0
    assert 0 < kept.sum() < cx.n_cells(2)
    sign = (-1) ** (2 * (cx.n - 2)) * np.sign(g00)
    assert np.max(np.abs(FF[kept] - sign * F.values[kept])) <= 1e-12
    assert np.all(FF[~kept] == 0.0)


@pytest.mark.parametrize("g00", [-1.0, 1.0, -4.0])
def test_double_star_defect_measures_a_wrong_star(g00):
    lat, cx = cylinder_complex()
    star = hodge_factors(cx, position_dependent_metric(lat, cx.n_t, cx.dt, g00))
    F = Cochain(cx, 2, np.random.default_rng(4).normal(size=cx.n_cells(2)))
    assert maxwell.double_star_defect(star, F) <= 1e-12
    assert maxwell.double_star_defect(star, zero_cochain(cx, 2)) == 0.0
    # a star off by a factor 2 makes ** off by 4: the defect reads 3
    wrong = replace(star, factors=tuple(2.0 * f for f in star.factors))
    assert abs(maxwell.double_star_defect(wrong, F) - 3.0) <= 1e-12


def test_hodge_rejects_nondiagonal_metric():
    lat, cx = cylinder_complex()
    g = constant_metric(lat, np.array([[1.0, 0.2], [0.2, 1.0]]))
    met = lorentzian_lift(lat, np.broadcast_to(g, (cx.n_t,) + g.shape).copy(),
                          np.arange(cx.n_t) * cx.dt)
    with pytest.raises(ComplexError, match="diagonal spatial metrics only"):
        hodge_factors(cx, met)


def test_hodge_rejects_a_lift_whose_sample_count_is_not_the_slice_count():
    # nor the lift of another lattice, whose site count is not the complex's
    lat = build_lattice(LatticeSpec("ring", (5,), (1.0,)))
    cx = build_spacetime_complex(lat, 4, 1.0)
    g = constant_metric(lat)
    rings = [build_lattice(LatticeSpec("ring", (n,), (1.0,))) for n in (7, 4)]
    for bad, match in [(lorentzian_lift(lat, [g, 2 * g], [0, 1]), "2 samples.*4 time slices"),
                       *((lorentzian_lift(r, constant_metric(r)), f"{r.n_sites} sites.*5 sites")
                         for r in rings)]:
        with pytest.raises(ComplexError, match=match):
            hodge_factors(cx, bad)
    static = hodge_factors(cx, lorentzian_lift(lat, g))
    per_slice = hodge_factors(cx, lorentzian_lift(lat, [g] * 4))
    for k in range(4):
        assert np.array_equal(static.factors[k], per_slice.factors[k])


def test_star_refuses_a_cochain_of_another_complex_or_degree():
    lat, cx = cylinder_complex()
    _, twin = cylinder_complex()
    star = hodge_factors(cx)
    with pytest.raises(ComplexError, match="different complexes"):
        hodge(star, zero_cochain(twin, 2))
    with pytest.raises(ComplexError, match="different complexes"):
        current(star, zero_cochain(twin, 2))
    with pytest.raises(ComplexError, match="need a 1-cochain"):
        continuity_defect(star, zero_cochain(cx, 2))


# ------------------------------------------------------------ current

def test_zero_potential_zero_current():
    lat, cx = cylinder_complex()
    pot = zero_cochain(cx, 1)
    j = current(hodge_factors(cx, flat_metric(lat, cx.n_t, cx.dt)), d_cochain(pot))
    assert np.max(np.abs(j.values)) == 0.0


def test_uniform_flux_on_torus_time_is_sourceless():
    # constant F on a fully periodic complex is closed and co-closed:
    # both the coboundary and the codifferential annihilate it
    lat = build_lattice(LatticeSpec("torus", (5, 5), (1.0, 1.0)))
    cx = build_spacetime_complex(lat, 4, 0.5)
    star = hodge_factors(cx, flat_metric(lat, 4, 0.5))
    F = zero_cochain(cx, 2)
    F.values[np.all(cx.cell_axes[2] == (1, 2), axis=1)] = 0.7
    assert np.max(np.abs(incidence_csr(cx, 2) @ F.values)) <= 1e-12
    j = (incidence_csr(cx, 1).T @ (star.factors[2] * F.values))
    j = j / star.factors[1]
    assert np.max(np.abs(j)) <= 1e-12


def test_localized_bump_current_support():
    lat = build_lattice(LatticeSpec("torus", (8, 8), (1.0, 1.0)))
    n_t = 8
    cx = build_spacetime_complex(lat, n_t, 1.0)
    star = hodge_factors(cx, flat_metric(lat, n_t, 1.0))
    # one plaquette column of flux via a single spatial link phase
    theta = np.zeros(lat.n_links)
    link = lat.link_index(np.ravel_multi_index((4, 4), lat.sizes), (1, 0))
    theta[link] = 0.3
    theta[lat.link_reverse[link]] = -0.3
    pot = assemble_potential(cx, [theta] * n_t, [np.zeros(lat.n_sites)] * n_t)
    j = current(star, d_cochain(pot))
    support_edges = np.flatnonzero(np.abs(j.values) > 1e-14)
    # support touches only cells within one step of the excited column
    _, edge_site = np.divmod(cx.cell_anchor[1], lat.n_sites)
    touched_sites = set()
    for e in support_edges:
        touched_sites.add(int(edge_site[e]))
    allowed = set()
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            allowed.add(int(np.ravel_multi_index(((4 + dx) % 8, (4 + dy) % 8), lat.sizes)))
    assert touched_sites <= allowed
    assert len(support_edges) > 0


def test_continuity_identity_random_ensemble():
    lat, cx = cylinder_complex(8, 8, 8, 0.5)
    rng = np.random.default_rng(7)
    for g00 in (-1.0, 1.0):
        star = hodge_factors(cx, flat_metric(lat, 8, 0.5, g00=g00))
        for _ in range(5):
            A_series, phi_series = random_series(lat, 8, 0.4, rng)
            pot = assemble_potential(cx, A_series, phi_series)
            j = current(star, d_cochain(pot))
            assert continuity_defect(star, j) <= 1e-12


def test_continuity_with_position_dependent_diagonal_metric():
    lat = build_lattice(LatticeSpec("cylinder", (6, 6), (1.0, 1.0)))
    cx = build_spacetime_complex(lat, 4, 0.5)
    g = constant_metric(lat)
    g[:, 0, 0] = 1.0 + 0.3 * np.sin(2 * np.pi * lat.positions[:, 0] / 6)
    g[:, 1, 1] = 1.5 + 0.2 * np.cos(2 * np.pi * lat.positions[:, 1] / 6)
    met = lorentzian_lift(lat, np.broadcast_to(g, (4,) + g.shape).copy(),
                          np.arange(4) * 0.5)
    rng = np.random.default_rng(8)
    A_series, phi_series = random_series(lat, 4, 0.3, rng)
    pot = assemble_potential(cx, A_series, phi_series)
    star = hodge_factors(cx, met)
    j = current(star, d_cochain(pot))
    assert continuity_defect(star, j) <= 1e-12


def test_dF_is_metric_independent():
    lat, cx = cylinder_complex()
    rng = np.random.default_rng(9)
    A_series, phi_series = random_series(lat, cx.n_t, 0.3, rng)
    pot = assemble_potential(cx, A_series, phi_series)
    # the coboundary takes no metric argument at all; recompute and compare
    dF1 = d_cochain(d_cochain(pot)).values
    dF2 = d_cochain(d_cochain(pot)).values
    assert np.array_equal(dF1, dF2)


def test_array_holding_dataclasses_compare_by_identity():
    # value equality over array fields is ambiguous; these compare and
    # hash by identity instead of raising
    lat, cx = cylinder_complex()
    twin_lat, twin_cx = cylinder_complex()
    met, twin_met = flat_metric(lat, cx.n_t, cx.dt), flat_metric(lat, cx.n_t, cx.dt)
    pairs = [(lat, twin_lat), (cx, twin_cx), (zero_cochain(cx, 1), zero_cochain(cx, 1)),
             (met, twin_met), (hodge_factors(cx, met), hodge_factors(cx, met))]
    for obj, twin in pairs:
        assert obj == obj and obj != twin
        assert len({obj, twin, obj}) == 2
