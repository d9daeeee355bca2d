"""Flat connections, loop holonomies, flux spectra and Chern numbers.

Connections are LinkFields of integrated phases.  The holonomy of a
closed link cycle is the phase sum reduced to the canonical branch
(-pi, pi]; flat connections (all plaquette sums zero) carry physics only
through these holonomies, which is the discrete Aharonov-Bohm setup: the
flux through the "inside" of a ring or cylinder shifts the spectrum even
though the field strength on the lattice vanishes.
"""

from __future__ import annotations

import numpy as np

from .lattice import LatticeError, constant_metric, link_field, plaquette_sums
from .operators import _assemble, _stencil_diagonal, eigenvalues, link_couplings
from .reconstruct import wrap_angle


class TopologyError(LatticeError):
    """Operation requires periodic directions the lattice does not have."""


def flat_connection(lattice, target):
    """Flat LinkField whose generator holonomies match the target.

    Each angle is spread uniformly along its periodic axis: every +axis
    link carries angle / N_k, so all plaquette sums cancel exactly.
    Angles are spread literally: alpha and alpha + 2 pi give distinct,
    gauge-equivalent connections.
    """
    angles = tuple(float(a) for a in np.atleast_1d(target))
    if not np.isfinite(angles).all():
        raise LatticeError(f"holonomy targets must be finite, got {angles}")
    n_gen = len(lattice.pi1_generators)
    if len(angles) != n_gen:
        raise TopologyError(
            f"{len(angles)} holonomy targets for {n_gen} fundamental-group "
            f"generators ({lattice.spec.topology})"
        )
    theta = np.zeros(lattice.n_links)
    periodic_axes = [k for k in range(lattice.ndim) if lattice.periodic[k]]
    for angle, k in zip(angles, periodic_axes):
        plus = lattice.link_table[:, 2 * k]  # the +e_k links, none cut on a periodic axis
        theta[plus] = angle / lattice.sizes[k]
        theta[lattice.link_reverse[plus]] = -angle / lattice.sizes[k]
    return theta


def flatness_defect(lattice, theta):
    """Largest plaquette phase sum magnitude (zero for flat connections);
    theta must be a LinkField (link_field)."""
    s = plaquette_sums(lattice, link_field(lattice, theta))
    return float(np.max(np.abs(s), initial=0.0))


def ab_spectrum(lattice, m, alphas):
    """Spectral flow: eigenvalues of H(flat connection with holonomy alpha)
    for the identity metric and no potential.

    The lattice must have exactly one periodic axis (ring or cylinder).
    Any flux is accepted: only the link phases change with alpha, and a
    spectrum needs no amplitude/phase split, so the builder's phase
    window does not apply.  Returns an array of shape (len(alphas),
    n_sites) with each row sorted.
    """
    _one_periodic_axis(lattice)
    c = link_couplings(lattice, constant_metric(lattice), m)
    diagonal = _stencil_diagonal(lattice, c)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1:
        raise LatticeError(f"alphas must be a 1-D array of angles, got shape {alphas.shape}")
    table = np.empty((len(alphas), lattice.n_sites))
    for row, alpha in enumerate(alphas):
        theta = flat_connection(lattice, (alpha,))
        table[row] = eigenvalues(_assemble(lattice, c, theta, diagonal))
    return table


def chern_number(lattice, theta):
    """First Chern number of a connection on a closed 2D lattice.

    Sum of principal-branch plaquette phase sums over 2 pi, rounded; the
    pre-rounding value must sit within 1e-6 of an integer, otherwise the
    per-plaquette fluxes are too large for branch consistency.  theta must
    be a LinkField (link_field).
    """
    _torus_only(lattice)
    fluxes = wrap_angle(plaquette_sums(lattice, link_field(lattice, theta)))
    total = float(fluxes.sum()) / (2 * np.pi)
    nearest = round(total)
    if abs(total - nearest) > 1e-6:
        raise LatticeError(
            f"total flux / 2 pi = {total:.9g} is not an integer; "
            "per-plaquette phases exceed the principal branch"
        )
    return int(nearest)


def _one_periodic_axis(lattice):
    """Refuse a lattice without exactly one periodic axis, as a spectral flow needs."""
    if len(lattice.pi1_generators) != 1:
        raise TopologyError("spectral flow needs exactly one periodic direction (ring or cylinder)")


def _torus_only(lattice):
    """Refuse a lattice other than a torus, as a Chern number needs."""
    if lattice.spec.topology != "torus":
        raise TopologyError("Chern number needs a closed 2D lattice (torus)")


def _flux_in_branch(lattice, quanta):
    """Refuse a uniform flux of pi or more per plaquette: the principal
    branch that `chern_number` sums would read another integer."""
    if 2 * abs(quanta) >= lattice.n_sites:  # a torus has one plaquette per site
        raise ValueError(f"{quanta} flux quanta over {lattice.n_sites} plaquettes put pi or "
                         f"more on each; need |k| < {lattice.n_sites / 2:g}")


def _uniform_flux_connection(lattice, quanta):
    """Torus connection with uniform flux 2 pi quanta / n_plaquettes."""
    nx, ny = lattice.sizes
    flux = 2 * np.pi * quanta / (nx * ny)
    theta = np.zeros(lattice.n_links)
    for s in range(lattice.n_sites):
        ix, iy = lattice.coords[s]
        ly = lattice.link_index(s, (0, 1))
        theta[ly] = flux * ix
        theta[lattice.link_reverse[ly]] = -flux * ix
    for s in range(lattice.n_sites):
        ix, iy = lattice.coords[s]
        if ix == nx - 1:
            lx = lattice.link_index(s, (1, 0))
            theta[lx] = -flux * nx * iy
            theta[lattice.link_reverse[lx]] = flux * nx * iy
    return theta
