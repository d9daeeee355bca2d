import numpy as np
import pytest

from geomqm import (
    LatticeError,
    LatticeSpec,
    build_lattice,
    d0,
    link_field,
    plaquette_sums,
    scalar_field,
)


def ring(n=8, h=1.0):
    return build_lattice(LatticeSpec("ring", (n,), (h,)))


def test_ring_counts():
    lat = ring(8)
    assert lat.n_sites == 8
    assert lat.n_links == 16  # directed axis links only in 1D
    assert len(lat.pi1_generators) == 1


def test_torus_counts():
    lat = build_lattice(LatticeSpec("torus", (4, 4), (1.0, 1.0)))
    assert lat.n_sites == 16
    assert len(lat.pi1_generators) == 2
    assert len(plaquette_sums(lat, np.zeros(lat.n_links))) == 16
    # 2 axes * 2 directions + 4 diagonal steps, each from every site
    assert lat.n_links == 16 * 8


def test_small_interval_rejected():
    with pytest.raises(LatticeError):
        build_lattice(LatticeSpec("interval", (2,), (1.0,)))


def test_unknown_topology_rejected():
    with pytest.raises(LatticeError):
        LatticeSpec("moebius", (4,), (1.0,))


def test_bad_spacing_rejected():
    with pytest.raises(LatticeError):
        LatticeSpec("ring", (4,), (0.0,))


def test_link_reversal_invariants():
    lat = build_lattice(LatticeSpec("cylinder", (6, 4), (0.5, 1.5)))
    rev = lat.link_reverse
    assert np.all(lat.link_src[rev] == lat.link_dst)
    assert np.all(lat.link_dst[rev] == lat.link_src)
    disp = lat.stencil.steps[lat.link_step] * np.asarray(lat.spacings)
    assert np.max(np.abs(disp[rev] + disp)) == 0.0
    # minimal-image components bounded by half a period
    for k in range(lat.ndim):
        bound = lat.sizes[k] * lat.spacings[k] / 2
        assert np.all(np.abs(disp[:, k]) <= bound + 1e-12)


def test_diagonal_links_only_in_2d_planes():
    lat1 = ring(5)
    axes1 = lat1.stencil.axes[lat1.link_step]
    assert np.all(axes1[:, 0] == axes1[:, 1])
    lat3 = build_lattice(LatticeSpec("box3", (3, 3, 3), (1.0, 1.0, 1.0)))
    axes3 = lat3.stencil.axes[lat3.link_step]
    diag = axes3[:, 0] != axes3[:, 1]
    disp = lat3.stencil.steps[lat3.link_step][diag] * np.asarray(lat3.spacings)
    # every diagonal displacement touches exactly two axes
    assert np.all((disp != 0).sum(axis=1) == 2)


def test_d0_constant_is_zero():
    lat = ring(6)
    assert np.max(np.abs(d0(lat, np.full(6, 3.7)))) == 0.0


def test_d0_plain_difference_across_wrap():
    lat = ring(4)
    f = np.array([0.0, 1.0, 2.0, 3.0])
    wrap = lat.link_index(3, (1,))
    assert d0(lat, f)[wrap] == -3.0


def test_d0_indicator_locality():
    lat = ring(8)
    f = np.zeros(8)
    f[3] = 1.0
    df = d0(lat, f)
    touched = (lat.link_src == 3) | (lat.link_dst == 3)
    assert np.all(df[~touched] == 0.0)
    assert np.all(df[touched] != 0.0)


def test_d0_linear():
    lat = build_lattice(LatticeSpec("torus", (4, 5), (1.0, 0.7)))
    rng = np.random.default_rng(3)
    f, g = rng.normal(size=lat.n_sites), rng.normal(size=lat.n_sites)
    a, b = 1.3, -0.4
    assert np.allclose(d0(lat, a * f + b * g), a * d0(lat, f) + b * d0(lat, g),
                       rtol=0, atol=1e-14)


def test_d0_leibniz_identity():
    # d0(fg) on link (i->j) = f_i (g_j - g_i) + g_j (f_j - f_i), exactly
    lat = build_lattice(LatticeSpec("cylinder", (4, 4), (1.0, 1.0)))
    rng = np.random.default_rng(5)
    f, g = rng.normal(size=lat.n_sites), rng.normal(size=lat.n_sites)
    i, j = lat.link_src, lat.link_dst
    expect = f[i] * (g[j] - g[i]) + g[j] * (f[j] - f[i])
    assert np.allclose(d0(lat, f * g), expect, rtol=0, atol=1e-13)


def test_pi1_cycles_closed_with_full_period():
    for topo, sizes, spacings in (
        ("ring", (8,), (0.5,)),
        ("cylinder", (6, 4), (1.0, 1.0)),
        ("torus", (4, 5), (1.0, 2.0)),
    ):
        lat = build_lattice(LatticeSpec(topo, sizes, spacings))
        gens = lat.pi1_generators
        periodic_axes = [k for k in range(lat.ndim) if lat.periodic[k]]
        assert len(gens) == len(periodic_axes)
        for cycle, k in zip(gens, periodic_axes):
            assert len(cycle) == sizes[k]
            # closed chain of links, start site = end site
            assert np.all(lat.link_dst[cycle[:-1]] == lat.link_src[cycle[1:]])
            assert lat.link_dst[cycle[-1]] == lat.link_src[cycle[0]]
            total = (lat.stencil.steps[lat.link_step[cycle]] * np.asarray(spacings)).sum(axis=0)
            expect = np.zeros(lat.ndim)
            expect[k] = sizes[k] * spacings[k]
            assert np.allclose(total, expect, rtol=0, atol=1e-12)


def test_contractible_has_no_generators():
    lat = build_lattice(LatticeSpec("interval", (5,), (1.0,)))
    assert lat.pi1_generators == ()


def test_cylinder_generator_length():
    lat = build_lattice(LatticeSpec("cylinder", (6, 4), (1.0, 1.0)))
    (cycle,) = lat.pi1_generators
    assert len(cycle) == 6


def test_field_validators():
    lat = ring(4)
    with pytest.raises(LatticeError):
        scalar_field(lat, [1.0, 2.0])
    with pytest.raises(LatticeError):
        scalar_field(lat, [np.nan, 0.0, 0.0, 0.0])
    w = np.zeros(lat.n_links)
    w[0] = 1.0  # reverse partner left at zero: not antisymmetric
    with pytest.raises(LatticeError):
        link_field(lat, w)
    w[lat.link_reverse[0]] = -1.0
    assert link_field(lat, w) is not None


def test_minimal_image_matches_link_displacement():
    lat = build_lattice(LatticeSpec("torus", (4, 6), (1.0, 0.5)))
    for idx in range(0, lat.n_links, 7):
        i, j = int(lat.link_src[idx]), int(lat.link_dst[idx])
        assert np.allclose(
            lat.minimal_image_displacement(i, j),
            lat.stencil.steps[lat.link_step[idx]] * np.asarray(lat.spacings), atol=1e-14
        )
        assert lat.graph_distance(i, j) == 1
