import numpy as np
import pytest

from geomqm import (
    LatticeError,
    LatticeSpec,
    TopologyError,
    ab_spectrum,
    build_lattice,
    chern_number,
    d0,
    flat_connection,
    flatness_defect,
    tree_gauge_potential,
    wrap_angle,
)


def ring(n, h=1.0):
    return build_lattice(LatticeSpec("ring", (n,), (h,)))


def ring_spectrum_oracle(n, h, m, alpha):
    """Twisted-boundary Fourier oracle for the free ring."""
    k = np.arange(n)
    return np.sort((1.0 - np.cos((2 * np.pi * k - alpha) / n)) / (m * h * h))


def uniform_flux_connection(lat, quanta):
    """Landau-style torus connection with uniform per-plaquette flux."""
    nx, ny = lat.sizes
    flux = 2 * np.pi * quanta / (nx * ny)
    theta = np.zeros(lat.n_links)
    for s in range(lat.n_sites):
        ix, iy = lat.coords[s]
        ly = lat.link_index(s, (0, 1))
        theta[ly] = flux * ix
        theta[lat.link_reverse[ly]] = -flux * ix
        if ix == nx - 1:
            lx = lat.link_index(s, (1, 0))
            theta[lx] = -flux * nx * iy
            theta[lat.link_reverse[lx]] = flux * nx * iy
    return theta


# ------------------------------------------------------------- holonomy

def test_zero_connection_zero_holonomy():
    lat = ring(6)
    (cycle,) = lat.pi1_generators
    assert wrap_angle(np.zeros(lat.n_links)[cycle].sum()) == 0.0


def test_pure_gauge_holonomy_telescopes():
    lat = build_lattice(LatticeSpec("torus", (4, 5), (1.0, 1.0)))
    chi = np.cos(np.arange(lat.n_sites) * 0.83)
    theta = d0(lat, chi)
    for cycle in lat.pi1_generators:
        assert abs(wrap_angle(theta[cycle].sum())) < 1e-13


def test_uniform_ring_holonomy():
    lat = ring(8)
    theta = flat_connection(lat, (2.1,))
    (cycle,) = lat.pi1_generators
    assert abs(wrap_angle(theta[cycle].sum()) - 2.1) < 1e-13


def test_holonomy_gauge_invariant():
    lat = build_lattice(LatticeSpec("cylinder", (6, 4), (1.0, 1.0)))
    rng = np.random.default_rng(0)
    theta = flat_connection(lat, (1.3,))
    chi = rng.normal(size=lat.n_sites)
    (cycle,) = lat.pi1_generators
    h0 = wrap_angle(theta[cycle].sum())
    h1 = wrap_angle((theta + d0(lat, chi))[cycle].sum())
    assert abs(wrap_angle(h1 - h0)) < 1e-12


# ------------------------------------------------------- flat connections

def test_flat_connection_cylinder():
    lat = build_lattice(LatticeSpec("cylinder", (6, 4), (1.0, 1.0)))
    theta = flat_connection(lat, (np.pi / 3,))
    assert flatness_defect(lat, theta) <= 1e-13
    (cycle,) = lat.pi1_generators
    assert abs(wrap_angle(theta[cycle].sum()) - np.pi / 3) < 1e-13


def test_flat_connection_interval_empty_target():
    lat = build_lattice(LatticeSpec("interval", (5,), (1.0,)))
    theta = flat_connection(lat, ())
    assert np.max(np.abs(theta)) == 0.0


def test_flat_connection_torus_pair():
    lat = build_lattice(LatticeSpec("torus", (5, 7), (1.0, 1.0)))
    alpha, beta = 0.9, -1.7
    theta = flat_connection(lat, (alpha, beta))
    assert flatness_defect(lat, theta) <= 1e-13
    g0, g1 = lat.pi1_generators
    assert abs(wrap_angle(theta[g0].sum()) - alpha) < 1e-13
    assert abs(wrap_angle(theta[g1].sum()) - beta) < 1e-13


def test_flat_connection_contractible_rejected():
    lat = build_lattice(LatticeSpec("interval", (5,), (1.0,)))
    with pytest.raises(TopologyError):
        flat_connection(lat, (0.3,))


def test_equal_holonomy_classes_are_gauge_equivalent():
    # tree-gauge canonical forms of two flat connections with the same
    # holonomy coincide
    lat = build_lattice(LatticeSpec("cylinder", (6, 5), (1.0, 1.0)))
    rng = np.random.default_rng(1)
    theta1 = flat_connection(lat, (0.8,))
    theta2 = theta1 + d0(lat, rng.normal(0.0, 0.2, lat.n_sites))

    def canonical(theta):
        chi = tree_gauge_potential(lat, theta)
        return wrap_angle(theta + d0(lat, chi))

    assert np.max(np.abs(canonical(theta1) - canonical(theta2))) < 1e-12


# ------------------------------------------------------------- spectra

def test_ab_ring_oracle_at_pi():
    lat = ring(4)
    table = ab_spectrum(lat, 1.0, [np.pi])
    expect = np.sort([1 - np.sqrt(2) / 2, 1 - np.sqrt(2) / 2,
                      1 + np.sqrt(2) / 2, 1 + np.sqrt(2) / 2])
    assert np.max(np.abs(table[0] - expect)) < 1e-10
    assert np.max(np.abs(table[0] - ring_spectrum_oracle(4, 1.0, 1.0, np.pi))) < 1e-10


def test_ab_spectrum_2pi_periodic():
    lat = ring(64)
    grid = np.linspace(0.0, 2 * np.pi, 33)
    t0 = ab_spectrum(lat, 1.0, grid)
    t1 = ab_spectrum(lat, 1.0, grid + 2 * np.pi)
    assert np.max(np.abs(t0 - t1)) <= 1e-9


def test_ab_flux_observable_despite_flat_connection():
    lat = ring(4)
    t = ab_spectrum(lat, 1.0, [0.0, np.pi])
    assert abs(t[1, 0] - t[0, 0]) >= 0.1
    assert flatness_defect(lat, flat_connection(lat, (np.pi,))) == 0.0


def test_ab_spectrum_even_in_alpha():
    lat = ring(8)
    t = ab_spectrum(lat, 1.0, [0.9, -0.9])
    assert np.max(np.abs(t[0] - t[1])) <= 1e-10


def test_ab_spectrum_matches_oracle_on_grid():
    lat = ring(8, h=0.5)
    grid = np.linspace(-1.0, 1.0, 7)
    table = ab_spectrum(lat, 2.0, grid)
    for row, alpha in zip(table, grid):
        assert np.max(np.abs(row - ring_spectrum_oracle(8, 0.5, 2.0, alpha))) < 1e-10


@pytest.mark.parametrize("n", [4, 5])
def test_ab_ring_oracle_past_the_builder_phase_window(n):
    # alpha / n reaches pi/2 and beyond: the flux grid is not a saved operator
    grid = np.linspace(0.0, 4 * np.pi, 9)
    table = ab_spectrum(ring(n, h=0.8), 1.7, grid)
    for row, alpha in zip(table, grid):
        assert np.max(np.abs(row - ring_spectrum_oracle(n, 0.8, 1.7, alpha))) < 1e-10


def test_ab_cylinder_is_ring_plus_open_chain():
    nx, ny, hx, hy, m = 6, 5, 1.0, 0.7, 1.3
    lat = build_lattice(LatticeSpec("cylinder", (nx, ny), (hx, hy)))
    grid = np.linspace(0.0, 4 * np.pi, 7)
    chain = (1.0 - np.cos(np.pi * np.arange(ny) / ny)) / (m * hy * hy)
    for row, alpha in zip(ab_spectrum(lat, m, grid), grid):
        expect = np.sort(np.add.outer(ring_spectrum_oracle(nx, hx, m, alpha), chain).ravel())
        assert np.max(np.abs(row - expect)) < 1e-10


def test_ab_spectrum_evaluates_couplings_once_and_builds_no_hamiltonian(monkeypatch):
    import geomqm.holonomy
    import geomqm.operators

    calls = []
    for module in (geomqm.operators, geomqm.holonomy):
        for name in ("link_couplings", "build_hamiltonian"):
            fn = getattr(module, name, None)
            if fn is not None:
                def counted(*args, _fn=fn, _name=name):
                    calls.append(_name)
                    return _fn(*args)

                monkeypatch.setattr(module, name, counted)
    ab_spectrum(ring(6), 1.0, np.linspace(0.0, 1.0, 5))
    assert calls == ["link_couplings"]


def test_ab_spectrum_needs_cyclic_topology():
    lat = build_lattice(LatticeSpec("interval", (8,), (1.0,)))
    with pytest.raises(TopologyError):
        ab_spectrum(lat, 1.0, [0.0])
    torus = build_lattice(LatticeSpec("torus", (4, 4), (1.0, 1.0)))
    with pytest.raises(TopologyError):
        ab_spectrum(torus, 1.0, [0.0])


# ------------------------------------------------------------- chern

def test_chern_zero_connection():
    lat = build_lattice(LatticeSpec("torus", (4, 4), (1.0, 1.0)))
    assert chern_number(lat, np.zeros(lat.n_links)) == 0


def test_chern_uniform_flux_quanta():
    lat = build_lattice(LatticeSpec("torus", (4, 4), (1.0, 1.0)))
    for k in (-2, -1, 0, 1, 2, 3):
        assert chern_number(lat, uniform_flux_connection(lat, k)) == k


def test_chern_pure_gauge_is_zero():
    lat = build_lattice(LatticeSpec("torus", (5, 5), (1.0, 1.0)))
    chi = np.sin(np.arange(lat.n_sites) * 0.29)
    assert chern_number(lat, 0.4 * d0(lat, chi)) == 0


def test_chern_requires_torus():
    lat = build_lattice(LatticeSpec("cylinder", (4, 4), (1.0, 1.0)))
    with pytest.raises(TopologyError):
        chern_number(lat, np.zeros(lat.n_links))


def test_chern_total_always_integer_for_link_fields():
    # valid antisymmetric fields telescope to an exact flux quantum total,
    # even with per-link phases of order one
    lat = build_lattice(LatticeSpec("torus", (4, 4), (1.0, 1.0)))
    rng = np.random.default_rng(5)
    theta = np.zeros(lat.n_links)
    canon = lat.link_reverse > np.arange(lat.n_links)
    vals = rng.uniform(-1.0, 1.0, int(canon.sum()))
    theta[canon] = vals
    theta[lat.link_reverse[canon]] = -vals
    assert isinstance(chern_number(lat, theta), int)


def test_chern_non_integer_total_rejected():
    # corrupted (non-antisymmetric) values break branch consistency
    lat = build_lattice(LatticeSpec("torus", (4, 4), (1.0, 1.0)))
    rng = np.random.default_rng(6)
    theta = rng.uniform(0.5, 1.5, lat.n_links)
    with pytest.raises(LatticeError):
        chern_number(lat, theta)
