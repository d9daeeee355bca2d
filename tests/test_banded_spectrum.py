"""The band-solver path of operators.eigenvalues against the dense
eigvalsh oracle, the closed-form Bloch spectrum, and its dispatch rule."""

import numpy as np
import pytest
import scipy.sparse as sp

from geomqm import (
    LatticeSpec,
    ab_spectrum,
    build_hamiltonian,
    build_lattice,
    constant_metric,
    eigenvalues,
    flat_connection,
)
from geomqm.operators import DENSE_LIMIT


def lattice(topology, sizes):
    return build_lattice(LatticeSpec(topology, sizes, (1.0,) * len(sizes)))


def random_phases(lat, rng, scale=0.3):
    """A random antisymmetric LinkField inside the builder's phase window."""
    theta = rng.uniform(-scale, scale, lat.n_links)
    forward = lat.link_reverse > np.arange(lat.n_links)
    theta[lat.link_reverse[forward]] = -theta[forward]
    return theta


def assert_band_path_matches_dense(H, monkeypatch):
    ref = np.linalg.eigvalsh(H.mat.toarray())

    def refuse(*args, **kwargs):
        raise AssertionError("the dense solver was called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    got = eigenvalues(H)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_flux_ring_matches_dense(monkeypatch):
    lat = lattice("ring", (97,))
    H = build_hamiltonian(lat, constant_metric(lat), flat_connection(lat, (1.3,)), None, 0.7)
    assert_band_path_matches_dense(H, monkeypatch)


def test_interval_with_sine_metric_and_gaussian_potential_matches_dense(monkeypatch):
    lat = lattice("interval", (200,))
    x = lat.positions[:, 0]
    g = (1.0 + 0.3 * np.sin(2 * np.pi * x / 50)).reshape(-1, 1, 1)
    phi = 0.8 * np.exp(-((x - 120.0) / 30.0) ** 2)
    assert_band_path_matches_dense(build_hamiltonian(lat, g, None, phi, 1.0), monkeypatch)


@pytest.mark.parametrize("topology, sizes, g01", [
    ("cylinder", (4, 64), 0.15),
    ("cylinder", (64, 4), 0.15),
    # plane-diagonal links would widen this band past sqrt(n)
    ("torus", (8, 64), 0.0),
])
def test_thin_two_dimensional_lattices_match_dense(monkeypatch, topology, sizes, g01):
    rng = np.random.default_rng(7)
    lat = lattice(topology, sizes)
    x = lat.positions[:, 0]
    g = constant_metric(lat, [[1.0, g01], [g01, 1.2]])
    g[:, 0, 0] += 0.2 * np.sin(2 * np.pi * x / sizes[0])
    phi = rng.normal(0.0, 0.5, lat.n_sites)
    H = build_hamiltonian(lat, g, random_phases(lat, rng), phi, 1.0)
    assert_band_path_matches_dense(H, monkeypatch)


def test_ring_at_the_dense_limit_matches_the_bloch_spectrum():
    n, alpha = DENSE_LIMIT, 0.7
    got = ab_spectrum(lattice("ring", (n,)), 1.0, [alpha])[0]
    k = np.arange(n)
    bloch = np.sort(1.0 - np.cos((2 * np.pi * k - alpha) / n))
    assert np.max(np.abs(got - bloch)) <= 1e-12 * max(1.0, np.max(bloch))


def test_ring_spectrum_takes_the_band_path_without_a_dense_matrix(monkeypatch):
    lat = lattice("ring", (256,))
    H = build_hamiltonian(lat, constant_metric(lat), flat_connection(lat, (0.4,)), None, 1.0)

    def refuse(*args, **kwargs):
        raise AssertionError("a dense matrix was made")

    monkeypatch.setattr(sp.csr_matrix, "toarray", refuse)
    k = np.arange(256)
    bloch = np.sort(1.0 - np.cos((2 * np.pi * k - 0.4) / 256))
    assert np.max(np.abs(eigenvalues(H) - bloch)) <= 1e-12


@pytest.mark.parametrize("case", ["wide band", "disconnected"])
def test_wide_bands_and_disconnected_patterns_take_the_dense_path(monkeypatch, case):
    if case == "wide band":  # the band is 31 wide > sqrt(256)
        lat = lattice("torus", (16, 16))
        mat = build_hamiltonian(lat, constant_metric(lat), None, None, 1.0).mat
    else:  # two rings, no entry between them
        lat = lattice("ring", (32,))
        ring = sp.csr_matrix(build_hamiltonian(lat, constant_metric(lat), None, None, 1.0).mat.toarray())
        mat = sp.block_diag([ring, 2.0 * ring], format="csr")
    dense = np.linalg.eigvalsh
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return dense(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    got = eigenvalues(mat)
    assert calls == [mat.shape]
    assert np.max(np.abs(got - dense(mat.toarray()))) <= 1e-12 * max(1.0, np.max(np.abs(got)))
