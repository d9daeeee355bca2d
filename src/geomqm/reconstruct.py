"""Inverse problem: recover (g, A, phi) from a Hamiltonian.

The reconstruction splits every off-diagonal entry into a real amplitude
and a phase, H_ij = -c * exp(-i*theta) with |theta| < pi/2 (the sign of
the amplitude carries metric cross terms, so the split is unique), then
reads the stencil backwards:

  * inverse metric from the covariant row sums of the double commutator
    [a, [H, b]] with a, b minimal-image coordinate differences, taken
    per link class (axis links give g^kk, plane diagonals give g^kl);
    this exactly inverts the builder's link averaging,
  * connection = the phase LinkField, defined up to the gauge shift
    theta -> theta + d0(chi); tree gauge is the canonical representative,
  * potential = operator diagonal minus the stencil diagonal implied by
    the recovered amplitudes.

Sign convention: Heisenberg evolution a_dot = i [H, a].  Under it the
flat-space commutator identity -i m [x, x_dot] = 1 holds with positive
sign and positive-definite metrics give positive row sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeError, d0, plaquette_sums
from .operators import (
    HermitianOperator,
    OperatorError,
    Triplets,
    _asmat,
    _cmul,
    _commutant_defect,
    _link_mean,
    _link_weights,
    _site_matrix,
    _stencil_diagonal,
    build_hamiltonian,
    hermiticity_defect,
)


class LocalityViolation(OperatorError):
    """Operator couples sites outside the range-1 link stencil."""


class PhaseAmbiguity(OperatorError):
    """An entry sits exactly on the theta = +-pi/2 branch boundary."""


@dataclass(frozen=True, eq=False)
class PeierlsDecomposition:
    """Amplitude/phase/diagonal split of a stencil-local Hamiltonian."""

    couplings: np.ndarray  # (n_links,) real, symmetric under reversal
    phases: np.ndarray     # (n_links,) real, antisymmetric under reversal
    diagonal: np.ndarray   # (n_sites,) real
    # the _link_entries table the split read (None if made by hand); axiom certificates reuse it
    entries: tuple = field(default=None, repr=False)


@dataclass(frozen=True, eq=False)
class AxiomReport:
    metric_min_eigenvalue: np.ndarray  # per site
    positivity_ok: bool
    nondegenerate: bool
    unquantized_axes: tuple
    cure_residuals: tuple              # ((k, l), residual) per coordinate pair
    commutant_defect: tuple


@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    g_rec: np.ndarray
    A_rec_tree_gauge: np.ndarray
    phi_rec: np.ndarray
    e_g: float
    e_F: float
    e_phi: float
    axiom: AxiomReport


def velocity(H, a):
    """Heisenberg velocity of a multiplication operator: i [H, mult(a)], entrywise
    i (H_ij a_j - a_i H_ij) without its zeros, each product a sparse product term (_cmul)."""
    mat = _asmat(H)
    a = _diagonal_of(mat, np.asarray(a, dtype=float).astype(complex))
    d = _cmul(mat.data, a[mat.col]) - _cmul(a[mat.row], mat.data)
    keep = d != 0
    return HermitianOperator(Triplets(mat.row[keep], mat.col[keep], 1j * d[keep], mat.shape))


def _diagonal_of(mat, x):
    """x, refused unless it has one value per row of mat."""
    if x.shape != mat.shape[:1]:
        raise OperatorError(f"dimension mismatch {mat.shape} vs diagonal {x.shape}")
    return x


def _link_entries(lattice, H):
    """Off-diagonal non-zeros of H as (rows, cols, values, link ids, steps).

    steps are the minimal-image integer steps (nnz, d) from row to column;
    an entry's link leaves its row along its step, -1 where there is
    none.  Refuses an operator whose size is not the lattice's site count.
    """
    mat = _site_matrix(lattice, H)
    keep = (mat.row != mat.col) & (mat.data != 0)
    rows, cols = mat.row[keep], mat.col[keep]
    steps = lattice._minimal_image_steps(rows, cols)
    col = lattice.stencil.column[tuple(np.clip(steps, -1, 1).T + 1)]
    links = np.where((col >= 0) & (np.abs(steps) <= 1).all(axis=1), lattice.link_table[rows, col], -1)
    return rows, cols, mat.data[keep], links, steps


def _link_couplings(lattice, entries):
    """Real amplitudes c on lattice links of the _link_entries values
    v = -c exp(-i theta), |theta| < pi/2; couplings off the stencil are ignored."""
    _, _, vals, links, _ = entries
    on = links >= 0
    v = vals[on]
    if np.any(v.real == 0.0):
        raise PhaseAmbiguity("phase on the pi/2 boundary")
    c = np.zeros(lattice.n_links)
    c[links[on]] = -np.sign(v.real) * np.hypot(v.real, v.imag)
    return c


def peierls_decompose(lattice, H):
    """Split H into link amplitudes, link phases and a diagonal.

    Raises LocalityViolation if H couples sites off the range-1 link
    stencil, and PhaseAmbiguity for entries with exactly vanishing real
    part (phase on the +-pi/2 boundary); the first offending entry in
    storage order is reported.
    """
    mat = _site_matrix(lattice, H)
    herm = hermiticity_defect(mat)
    if herm > 1e-10 * max(1.0, np.max(np.abs(mat.data), initial=0.0)):
        raise OperatorError(f"operator not Hermitian (defect {herm:g})")

    rows, cols, vals, links, _ = entries = _link_entries(lattice, mat)
    bad = np.flatnonzero((links < 0) | (vals.real == 0.0))
    if bad.size:
        i, j = rows[bad[0]], cols[bad[0]]
        if links[bad[0]] < 0:
            raise LocalityViolation(
                f"coupling {i}->{j} at graph distance "
                f"{lattice.graph_distance(i, j)} is outside the range-1 link stencil"
            )
        raise PhaseAmbiguity(
            f"entry {i}->{j} is purely imaginary: phase on the pi/2 boundary"
        )
    couplings = _link_couplings(lattice, entries)
    phases = np.zeros(lattice.n_links)
    phases[links] = -np.angle(-vals / couplings[links])
    diagonal = np.zeros(lattice.n_sites)
    ondiag = mat.row == mat.col
    diagonal[mat.row[ondiag]] = mat.data[ondiag].real
    return PeierlsDecomposition(couplings, phases, diagonal, entries)


def reconstruct_metric(lattice, dec, m):
    """Inverse-metric field of a decomposition, for mass m.

    Per site and component: g^kl(i) is the average over the incident
    links of class (k, l) of the link mean w * c, with w the builder's
    stencil weight (2 m h_k^2 on axis links, 4 m h_k h_l s on diagonals).
    This recovers exactly the link-averaged metric the builder consumed.
    Result symmetrized into both triangles.
    """
    return _incident_link_average(lattice, _link_weights(lattice, m) * dec.couplings)


def link_average_metric(lattice, g):
    """Reference field: the same incident-link averaging applied to g.

    This is the part of g the stencil can see; reconstruction reproduces
    it exactly on round trips.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (shape := (lattice.n_sites, lattice.ndim, lattice.ndim)):
        raise LatticeError(f"g must have shape {shape}, got {g.shape}")
    return _incident_link_average(lattice, _link_mean(lattice, g))


def _incident_link_average(lattice, gl):
    """Metric field whose (k, l) entry at site i averages the per-link
    values gl over the links of class (k, l) leaving i; symmetrized."""
    d = lattice.ndim
    k, l = lattice.stencil.axes[lattice.link_step].T
    out = np.zeros((lattice.n_sites, d, d))
    counts = np.zeros((lattice.n_sites, d, d))
    np.add.at(out, (lattice.link_src, k, l), gl)
    np.add.at(counts, (lattice.link_src, k, l), 1.0)
    out = np.where(counts > 0, out / np.maximum(counts, 1.0), 0.0)
    a, b = np.triu_indices(d, 1)
    out[:, b, a] = out[:, a, b]
    return out


def tree_gauge_potential(lattice, theta):
    """Gauge function chi that zeroes the phases on a BFS spanning tree.

    Deterministic: breadth-first from site 0 over axis links; a site
    joins the tree by the first link that reaches it in (frontier order,
    step order).  Transformed phases are theta + d0(chi).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (lattice.n_links,):
        raise LatticeError(f"theta must have shape ({lattice.n_links},), got {theta.shape}")
    if not np.isfinite(theta).all():
        raise LatticeError("theta has non-finite entries")
    chi = np.zeros(lattice.n_sites)
    seen = np.zeros(lattice.n_sites, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        links = lattice.link_table[frontier, : 2 * lattice.ndim].ravel()  # axis steps
        links = links[links >= 0]
        links = links[~seen[lattice.link_dst[links]]]
        _, first = np.unique(lattice.link_dst[links], return_index=True)
        tree = links[np.sort(first)]
        frontier = lattice.link_dst[tree]
        seen[frontier] = True
        # tree link s->j gets phase theta + chi_j - chi_s = 0
        chi[frontier] = chi[lattice.link_src[tree]] - theta[tree]
    if not seen.all():
        raise OperatorError("lattice is not connected by axis links")
    return chi


def wrap_angle(x):
    """Reduce to the canonical branch (-pi, pi], ties at -pi stored as +pi."""
    w = np.remainder(np.asarray(x, dtype=float) + np.pi, 2 * np.pi) - np.pi
    return np.where(w == -np.pi, np.pi, w)


def tree_gauge_connection(lattice, dec):
    """The canonical tree-gauge representative of a decomposition's
    phases, wrapped to (-pi, pi]; the decomposed phases themselves are
    dec.phases."""
    out = wrap_angle(dec.phases + d0(lattice, tree_gauge_potential(lattice, dec.phases)))
    # phases are only determined on the coupling support
    out[dec.couplings == 0.0] = 0.0
    return out


def reconstruct_potential(lattice, dec):
    """Scalar potential: operator diagonal minus the stencil diagonal.

    The stencil diagonal is the sum of the decomposed link amplitudes at
    each site, which is exactly the builder's diagonal, so round trips
    invert the builder to rounding.  The amplitudes already carry the
    mass.
    """
    return dec.diagonal - _stencil_diagonal(lattice, dec.couplings)


def gauge_transform(H, chi):
    """Conjugation exp(i chi) H exp(-i chi); spectrum preserved.  Entrywise (u_i H_ij)
    conj(u_j), u = exp(i chi), without its zeros, each product a sparse product term (_cmul)."""
    mat = _asmat(H)
    u = _diagonal_of(mat, np.exp(1j * np.asarray(chi, dtype=float)))
    out = _cmul(_cmul(u[mat.row], mat.data), u.conj()[mat.col])
    keep = out != 0
    return HermitianOperator(Triplets(mat.row[keep], mat.col[keep], out[keep], mat.shape))


def tree_gauge_canonicalize(lattice, H):
    """Gauge-transform H so its phases vanish on the canonical tree."""
    dec = peierls_decompose(lattice, H)
    chi = tree_gauge_potential(lattice, dec.phases)
    return gauge_transform(H, chi)


def coordinate_cure_residual(lattice, H, k, l, psi):
    """Multiplication-operator defect of [x_k, [H, x_l]] on psi.

    Returns ||[x_k,[H,x_l]] psi - s psi|| where s is the covariant
    row-sum field of the coordinate pair (k, l) over the lattice link
    stencil only; couplings beyond the stencil are deliberately left in
    the residual, which is what makes higher-than-second-order terms show
    up as a plateau under refinement.  The double commutator is built
    entrywise from per-pair minimal-image coordinate differences, so it
    is well defined on rings and tori where no global coordinates exist.
    Requires ||psi|| = 1.
    """
    if not all(isinstance(a, (int, np.integer)) and 0 <= a < lattice.ndim for a in (k, l)):
        raise OperatorError(f"axes must be in 0..{lattice.ndim - 1}, got k={k!r}, l={l!r}")
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (lattice.n_sites,):
        raise OperatorError(f"psi must have shape ({lattice.n_sites},), got {psi.shape}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("test vector must be normalized")
    entries = _link_entries(lattice, H)
    return _coordinate_cures(lattice, entries, _link_couplings(lattice, entries), psi,
                             [(k, l)])[0][1]


def _coordinate_cures(lattice, entries, c, psi, pairs):
    """((k, l), coordinate_cure_residual) per coordinate pair, from the
    link entries of H (_link_entries) and its link amplitudes c."""
    rows, cols, vals, _, steps = entries
    h, n, out, psi_cols = lattice.spacings, lattice.n_sites, [], psi[cols]
    for k, l in pairs:
        # [a,[H,b]]_ij = -(a_j - a_i)(b_j - b_i) H_ij, zero diagonal; its
        # product with psi adds each row from 0 in column order, as CSR's matvec
        dxx_vals = -(steps[:, k] * h[k]) * (steps[:, l] * h[l]) * vals
        terms = _cmul(dxx_vals, psi_cols)
        M_psi = np.bincount(rows, terms.real, n) + 1j * np.bincount(rows, terms.imag, n)
        s = _covariant_row_sums(lattice, c, k, l)
        out.append(((k, l), float(np.linalg.norm(M_psi - s * psi))))
    return tuple(out)


def _covariant_row_sums(lattice, c, k, l):
    """Sum of x_k x_l c over the links leaving each site, x the link displacement."""
    x = lattice.stencil.steps * np.asarray(lattice.spacings)
    return _stencil_diagonal(lattice, (x[:, k] * x[:, l])[lattice.link_step] * c)


def default_test_vector(lattice):
    """Normalized discrete Gaussian centered mid-domain, its width a sixth
    of each axis extent."""
    center = np.array(
        [0.5 * (n - 1) * h for n, h in zip(lattice.sizes, lattice.spacings)]
    )
    widths = np.array(
        [n * h * (1.0 / 6.0) for n, h in zip(lattice.sizes, lattice.spacings)]
    )
    r2 = np.zeros(lattice.n_sites)
    for k in range(lattice.ndim):
        dx = lattice.positions[:, k] - center[k]
        if lattice.periodic[k]:
            span = lattice.sizes[k] * lattice.spacings[k]
            dx = (dx + span / 2) % span - span / 2
        r2 += (dx / widths[k]) ** 2
    psi = np.exp(-0.5 * r2)
    return psi / np.linalg.norm(psi)


def axiom_report(lattice, H, m):
    """Certify the quantum-mechanics axioms at the stencil level.

    positivity_ok: the reconstructed metric is positive definite at every
    site beyond 1e-10.  nondegenerate: it is invertible at every site,
    whatever its sign (smallest |eigenvalue| above 1e-10), so an
    indefinite invertible metric fails positivity only.  unquantized_axes
    lists the axes decoupled everywhere (|g^kk| <= 1e-10).  Includes cure
    residuals for all coordinate pairs, on default_test_vector, and the
    commutant defect.
    """
    return reconstruction_report(lattice, H, m).axiom


def _axiom_report(lattice, entries, couplings, g):
    """axiom_report from the link entries of H (_link_entries), its link
    amplitudes and its reconstructed metric g."""
    tol = 1e-10
    eigs = np.linalg.eigvalsh(g) if lattice.ndim > 1 else g[:, 0]
    mins = eigs.min(axis=1)
    psi = default_test_vector(lattice)
    pairs = [(k, l) for k in range(lattice.ndim) for l in range(k, lattice.ndim)]
    return AxiomReport(
        metric_min_eigenvalue=mins,
        positivity_ok=bool(mins.min() > tol),
        nondegenerate=bool(np.abs(eigs).min() > tol),
        unquantized_axes=tuple(k for k in range(lattice.ndim)
                               if np.max(np.abs(g[:, k, k])) <= tol),
        cure_residuals=_coordinate_cures(lattice, entries, couplings, psi, pairs),
        commutant_defect=_commutant_defect(lattice, *entries[:3]),
    )


def reconstruction_report(lattice, H, m, truth=None):
    """Reconstruct (g, A, phi) from H, with axiom certificates.

    truth=(g_ref, theta, phi) gives the sup-norm errors against those
    fields (curvature compared through plaquette sums); without it the
    errors are NaN.
    """
    dec = peierls_decompose(lattice, H)
    g_rec = reconstruct_metric(lattice, dec, m)
    phi_rec = reconstruct_potential(lattice, dec)
    e_g = e_F = e_phi = float("nan")
    if truth is not None:
        g_ref, theta_in, phi_in = truth
        e_g = float(np.max(np.abs(g_rec - g_ref)))
        e_F = float(np.max(np.abs(plaquette_sums(lattice, dec.phases)
                                  - plaquette_sums(lattice, theta_in)), initial=0.0))
        e_phi = float(np.max(np.abs(phi_rec - phi_in)))
    return ReconstructionReport(
        g_rec=g_rec,
        A_rec_tree_gauge=tree_gauge_connection(lattice, dec),
        phi_rec=phi_rec,
        e_g=e_g,
        e_F=e_F,
        e_phi=e_phi,
        axiom=_axiom_report(lattice, dec.entries, dec.couplings, g_rec),
    )


def roundtrip_report(lattice, g, A, phi, m, reference="link_average"):
    """Build H from (g, A, phi), reconstruct, and report sup-norm errors.

    reference="link_average" compares against the link-averaged input
    (the discrete round trip, exact to rounding); "pointwise" compares
    against the raw site values (continuum mode, O(h^2)); any other
    value is a ValueError.
    """
    if reference not in ("link_average", "pointwise"):
        raise ValueError(f"unknown reference {reference!r}")
    g = np.asarray(g, dtype=float)
    phi = np.zeros(lattice.n_sites) if phi is None else np.asarray(phi, dtype=float)
    H = build_hamiltonian(lattice, g, A, phi, m)
    g_ref = link_average_metric(lattice, g) if reference == "link_average" else g
    theta_in = np.zeros(lattice.n_links) if A is None else np.asarray(A, dtype=float)
    return reconstruction_report(lattice, H, m, truth=(g_ref, theta_in, phi))
