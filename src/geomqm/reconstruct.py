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
import scipy.sparse as sp

from .lattice import d0, plaquette_sums
from .operators import (
    HermitianOperator,
    OperatorError,
    _asmat,
    _assemble,
    _commutant_defect,
    _link_mean,
    _link_weights,
    _site_matrix,
    _stencil_diagonal,
    build_hamiltonian,
    commutator,
    mult_op,
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

    def to_dict(self):
        return {
            "positivity": bool(self.positivity_ok),
            "nondegeneracy": bool(self.nondegenerate),
            "unquantized_axes": list(self.unquantized_axes),
            "min_metric_eigenvalue": float(self.metric_min_eigenvalue.min()),
            "cure_max": float(max((r for _, r in self.cure_residuals), default=0.0)),
            "commutant": [float(v) for v in self.commutant_defect],
        }


@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    g_rec: np.ndarray
    A_rec: np.ndarray            # phase LinkField as decomposed
    A_rec_tree_gauge: np.ndarray
    phi_rec: np.ndarray
    e_g: float
    e_F: float
    e_phi: float
    axiom: AxiomReport

    def to_dict(self, lattice):
        canon = lattice.link_reverse > np.arange(lattice.n_links)
        return {
            "g_rec": self.g_rec.tolist(),
            "A_rec_tree_gauge": [
                [int(i), int(j), float(v)]
                for i, j, v in zip(
                    lattice.link_src[canon],
                    lattice.link_dst[canon],
                    self.A_rec_tree_gauge[canon],
                )
            ],
            "phi_rec": self.phi_rec.tolist(),
            "errors": {"e_g": self.e_g, "e_F": self.e_F, "e_phi": self.e_phi},
            "axioms": self.axiom.to_dict(),
        }


def velocity(H, a):
    """Heisenberg velocity of a multiplication operator: i [H, mult(a)]."""
    d = sp.diags(np.asarray(a, dtype=float).astype(complex))
    mat = (1j * commutator(H, d)).tocsr()
    return HermitianOperator(mat)


def _link_entries(lattice, H):
    """Off-diagonal non-zeros of H as (rows, cols, values, link ids).

    The link of an entry (i, j) is the one link leaving i whose
    destination is j; its id is -1 where there is none.  Refuses an
    operator whose size is not the lattice's site count.
    """
    mat = _site_matrix(lattice, H).tocoo()
    keep = (mat.row != mat.col) & (mat.data != 0)
    rows, cols = mat.row[keep], mat.col[keep]
    out = lattice.link_table[rows]  # (nnz, n_steps) links leaving each row
    hit = (out >= 0) & (lattice.link_dst[out] == cols[:, None])
    return rows, cols, mat.data[keep], np.where(hit, out, -1).max(axis=1)


def _amplitudes(v):
    """Real amplitudes c of link entries v = -c exp(-i theta), |theta| < pi/2."""
    return -np.sign(v.real) * np.hypot(v.real, v.imag)


def _link_couplings(lattice, entries):
    """Amplitudes c on lattice links from _link_entries; other couplings ignored."""
    _, _, vals, links = entries
    on = links >= 0
    if np.any(vals.real[on] == 0.0):
        raise PhaseAmbiguity("phase on the pi/2 boundary")
    c = np.zeros(lattice.n_links)
    c[links[on]] = _amplitudes(vals[on])
    return c


def peierls_decompose(lattice, H):
    """Split H into link amplitudes, link phases and a diagonal.

    Raises LocalityViolation if H couples sites off the range-1 link
    stencil, and PhaseAmbiguity for entries with exactly vanishing real
    part (phase on the +-pi/2 boundary); the first offending entry in
    storage order is reported.
    """
    mat = _site_matrix(lattice, H)
    herm = HermitianOperator(mat).hermiticity_defect()
    mat = mat.tocoo()
    if herm > 1e-10 * max(1.0, np.max(np.abs(mat.data), initial=0.0)):
        raise OperatorError(f"operator not Hermitian (defect {herm:g})")

    rows, cols, vals, links = entries = _link_entries(lattice, mat)
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
    couplings = np.zeros(lattice.n_links)
    phases = np.zeros(lattice.n_links)
    diagonal = np.zeros(lattice.n_sites)
    ondiag = mat.row == mat.col
    diagonal[mat.row[ondiag]] = mat.data[ondiag].real
    c = _amplitudes(vals)
    couplings[links] = c
    phases[links] = -np.angle(-vals / c)
    return PeierlsDecomposition(couplings, phases, diagonal, entries)


def reassemble(lattice, dec):
    """Operator with entries -c * exp(-i*theta) plus the stored diagonal."""
    return _assemble(lattice, dec.couplings, dec.phases, dec.diagonal)


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
    return _incident_link_average(lattice, _link_mean(lattice, np.asarray(g, dtype=float)))


def _incident_link_average(lattice, gl):
    """Metric field whose (k, l) entry at site i averages the per-link
    values gl over the links of class (k, l) leaving i; symmetrized."""
    d = lattice.ndim
    k, l = lattice.link_axes[:, 0], lattice.link_axes[:, 1]
    out = np.zeros((lattice.n_sites, d, d))
    counts = np.zeros((lattice.n_sites, d, d))
    np.add.at(out, (lattice.link_src, k, l), gl)
    np.add.at(counts, (lattice.link_src, k, l), 1.0)
    out = np.where(counts > 0, out / np.maximum(counts, 1.0), 0.0)
    for a in range(d):
        for b in range(a + 1, d):
            out[:, b, a] = out[:, a, b]
    return out


def tree_gauge_potential(lattice, theta):
    """Gauge function chi that zeroes the phases on a BFS spanning tree.

    Deterministic: breadth-first from site 0 over axis links; a site
    joins the tree by the first link that reaches it in (frontier order,
    step order).  Transformed phases are theta + d0(chi).
    """
    theta = np.asarray(theta, dtype=float)
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
    """Conjugation exp(i chi) H exp(-i chi); spectrum preserved."""
    mat = _asmat(H)
    u = np.exp(1j * np.asarray(chi, dtype=float))
    out = sp.diags(u) @ mat @ sp.diags(u.conj())
    return HermitianOperator(out.tocsr())


def tree_gauge_canonicalize(lattice, H):
    """Gauge-transform H so its phases vanish on the canonical tree."""
    dec = peierls_decompose(lattice, H)
    chi = tree_gauge_potential(lattice, dec.phases)
    return gauge_transform(H, chi)


def cure_residual(lattice, H, a, b, psi):
    """Multiplication-operator defect of [mult(a), [H, mult(b)]] on psi.

    Returns ||[a,[H,b]] psi - s psi|| where s is the covariant row-sum
    field of the pair over the lattice link stencil only; couplings
    beyond the stencil are deliberately left in the residual, which is
    what makes higher-than-second-order terms show up as a plateau under
    refinement.  Requires ||psi|| = 1.
    """
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("test vector must be normalized")
    c = _link_couplings(lattice, _link_entries(lattice, H))
    M = commutator(mult_op(lattice, a).mat, commutator(_asmat(H), mult_op(lattice, b).mat))
    s = _stencil_diagonal(lattice, d0(lattice, a) * d0(lattice, b) * c)
    return float(np.linalg.norm(M @ psi - s * psi))


def coordinate_cure_residual(lattice, H, k, l, psi):
    """cure_residual for the coordinate pair (k, l), minimal-image safe.

    Builds [a,[H,b]] entrywise from per-pair minimal-image coordinate
    differences instead of global coordinate fields, so it is well
    defined on rings and tori where no global coordinates exist.
    """
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("test vector must be normalized")
    entries = _link_entries(lattice, H)
    return _coordinate_cures(lattice, entries, _link_couplings(lattice, entries), psi,
                             [(k, l)])[0][1]


def _coordinate_cures(lattice, entries, c, psi, pairs):
    """((k, l), coordinate_cure_residual) per coordinate pair, from the
    link entries of H (_link_entries) and its link amplitudes c."""
    rows, cols, vals, _ = entries
    dx = lattice.minimal_image_displacement(rows, cols)
    n, out = lattice.n_sites, []
    for k, l in pairs:
        # [a,[H,b]]_ij = -(a_j - a_i)(b_j - b_i) H_ij, zero diagonal
        M = sp.csr_matrix((-dx[:, k] * dx[:, l] * vals, (rows, cols)), shape=(n, n))
        s = _stencil_diagonal(lattice, lattice.link_disp[:, k] * lattice.link_disp[:, l] * c)
        out.append(((k, l), float(np.linalg.norm(M @ psi - s * psi))))
    return tuple(out)


def metric_row_sum_field(lattice, H, m, k, l):
    """m * covariant row sums for coordinate pair (k, l): a g^kl witness."""
    c = _link_couplings(lattice, _link_entries(lattice, H))
    return m * _stencil_diagonal(lattice, lattice.link_disp[:, k] * lattice.link_disp[:, l] * c)


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
    site beyond 1e-10.  nondegenerate additionally requires that no axis
    is entirely decoupled (an "unquantized" direction, |g^kk| <= 1e-10
    everywhere).  Includes cure residuals for all coordinate pairs, on
    default_test_vector, and the commutant defect.
    """
    return reconstruction_report(lattice, H, m).axiom


def _axiom_report(lattice, entries, couplings, g):
    """axiom_report from the link entries of H (_link_entries), its link
    amplitudes and its reconstructed metric g."""
    tol = 1e-10
    mins = np.linalg.eigvalsh(g).min(axis=1) if lattice.ndim > 1 else g[:, 0, 0]
    positivity = bool(mins.min() > tol)
    unquantized = tuple(k for k in range(lattice.ndim) if np.max(np.abs(g[:, k, k])) <= tol)
    psi = default_test_vector(lattice)
    pairs = [(k, l) for k in range(lattice.ndim) for l in range(k, lattice.ndim)]
    return AxiomReport(
        metric_min_eigenvalue=np.asarray(mins),
        positivity_ok=positivity,
        nondegenerate=positivity and not unquantized,
        unquantized_axes=unquantized,
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
        e_F = 0.0
        if len(lattice.plaq_links):
            e_F = float(
                np.max(np.abs(plaquette_sums(lattice, dec.phases)
                              - plaquette_sums(lattice, theta_in)))
            )
        e_phi = float(np.max(np.abs(phi_rec - phi_in)))
    return ReconstructionReport(
        g_rec=g_rec,
        A_rec=dec.phases,
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
