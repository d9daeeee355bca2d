"""Discrete exterior calculus on the product complex Q x time.

The spacetime complex is cubical: vertices are (site, time-sample)
pairs; edges, faces and 3-cells are spanned by subsets of the spacetime
axes, ordered (t, x, y, z), anchored at their lowest-corner vertex and
oriented by increasing axis index.  Incidence follows

    boundary[v; a_0 < ... < a_{k-1}] =
        sum_i (-1)^i ([v + e_{a_i}; drop a_i] - [v; drop a_i])

so applying the coboundary twice annihilates every cochain by integer
arithmetic alone.  Only axis links enter the complex (plane diagonals
are stencil decoration, not 1-cells).  Each incidence D_k is held as two
integer-indexed tables, the face ids of every (k+1)-cell in increasing
order and their +-1 signs, so the algebra is plain numpy: d sums each
cell's signed faces from 0.0 in face-id order, and the transpose D^T
sums into each face its cells' terms in increasing cell id (the orders
of a CSR matrix-vector product and of its transpose, bit for bit).

The connection 1-cochain is assembled as spatial link phases plus
potential * dt on time edges.  The metric enters only through the Hodge
star: hodge_factors builds one HodgeStar per metric, the diagonal
factors of every degree, and hodge, current (j = *d*F of F = dA alone),
continuity_defect and double_star_defect read it.  The factors are
evaluated at each cell's anchor vertex; a cell and its complement share
it, the two factors cancel to a pure sign, and continuity d*j = 0
reduces to the structural d.d = 0 even on open boundaries.  Spatial
metrics must be diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from numbers import Real

import numpy as np

from .lattice import LatticeError, scalar_field


class ComplexError(ValueError):
    """Invalid cell complex construction or cochain algebra."""


@dataclass(frozen=True, eq=False)
class Cochain:
    """Real values on the k-cells of a spacetime complex, k = 0..3: a finite
    real 1-D array of n_cells(k) values (none for k > n, such as dF on a
    1-d lattice)."""

    complex: "SpacetimeComplex"
    degree: int
    values: np.ndarray

    def __post_init__(self):
        k = self.degree
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k <= 3:
            raise ComplexError(f"cochain degree must be an integer in 0..3, got {k!r}")
        values = np.asarray(self.values)
        want = self.complex.n_cells(k)
        if values.shape != (want,):
            got = len(values) if values.ndim == 1 else f"shape {values.shape}"
            raise ComplexError(f"degree-{k} cochain needs {want} values, got {got}")
        if values.dtype.kind not in "iuf":
            raise ComplexError(f"cochain values must be real numbers, got dtype {values.dtype}")
        if not np.isfinite(values).all():
            raise ComplexError(f"degree-{k} cochain values must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class SpacetimeComplex:
    """Cubical complex on lattice x {0..n_t-1} time samples.

    Vertex v = it * n_sites + site (time-major).  The k-cell [v; axes] is
    spanned by an increasing axis combination at its anchor vertex v;
    the combinations of degree k are those of
    itertools.combinations(range(n), k), in that (lexicographic) order.
    Per degree k = 0..3:

      cell_table[k]   (n_verts, n_combos) int: id of the cell anchored at
                      vertex v along combination c, -1 where a cut step
                      leaves no cell
      cell_anchor[k]  (n_cells,) anchor vertex of every cell
      cell_axes[k]    (n_cells, k) int: the axes spanning every cell

    Cell ids, which are the cell_id column of cochains.csv: vertices
    time-major; spatial edges by (time, axis, site), then time edges by
    (time, site); faces and 3-cells anchor-major, then axes in
    lexicographic order.  incidence[k] = (faces, signs) is D_k, the
    (k+1)-cells x k-cells incidence, as two (n_{k+1}, 2(k+1)) tables:
    the ids of every (k+1)-cell's boundary k-cells in increasing order
    (sizes >= 3, so no cell meets a face twice) and their +-1.0 signs in
    the same order.  dual_pairs[k] = (src, dst) holds the k-cells whose
    complement cell exists and those complements, None where n - k is
    not a degree 0..3; edge_link holds the lattice link of every spatial
    edge, -1 on time edges.
    """

    lattice: object
    n_t: int
    dt: float
    cell_table: tuple
    cell_anchor: tuple
    cell_axes: tuple
    incidence: tuple
    dual_pairs: tuple
    edge_link: np.ndarray

    @property
    def n(self):
        return self.lattice.ndim + 1

    @property
    def spacings(self):
        return (self.dt,) + tuple(self.lattice.spacings)

    def n_cells(self, k):
        return len(self.cell_anchor[k]) if 0 <= k <= 3 else 0


def build_spacetime_complex(lattice, n_t, dt):
    """Cubical complex on lattice x {0..n_t-1} time samples, dt apart; dt must be a
    positive finite real number (not a bool or an array)."""
    if not isinstance(n_t, (int, np.integer)) or isinstance(n_t, bool) or n_t < 1:
        raise ComplexError(f"need an integer count of time samples >= 1, got {n_t!r}")
    if isinstance(dt, bool) or not (isinstance(dt, Real) and 0 < dt < np.inf):
        raise ComplexError(f"dt must be positive and finite, got {dt!r}")
    ns, n = lattice.n_sites, lattice.ndim + 1
    verts = np.arange(ns * n_t)
    it, site = np.divmod(verts, ns)
    # links[k, v]: the +e_k link (link_table column 2k) from v's site;
    # nxt[a, v]: the vertex one step from v along spacetime axis a, -1
    # where the step is cut
    links = lattice.link_table[site][:, 0:2 * lattice.ndim:2].T
    nxt = np.vstack([
        np.where(it + 1 < n_t, verts + ns, -1),
        np.where(links >= 0, it * ns + lattice.link_dst[links], -1),
    ])

    cell_table, cell_anchor, cell_axes = [verts[:, None]], [verts], [np.zeros((len(verts), 0), int)]
    incidence = []
    for k in range(1, 4):
        combos = np.array(list(combinations(range(n), k)), dtype=int).reshape(-1, k)
        # a cell exists where every spanning step from its anchor does
        # (the complex is a product, so the far corners then exist too)
        exists = np.all(nxt[combos] >= 0, axis=1).T
        if k == 1:
            # spatial edges by (time, axis, site), then time edges by (time, site)
            grid = exists.reshape(n_t, ns, n)
            t_s, axis, s_s = np.nonzero(grid[:, :, 1:].transpose(0, 2, 1))
            t_t, s_t = np.nonzero(grid[:, :, 0])
            anchor = np.concatenate([t_s * ns + s_s, t_t * ns + s_t])
            combo = np.concatenate([axis + 1, np.zeros_like(s_t)])
        else:
            anchor, combo = np.nonzero(exists)
        cells = np.arange(len(anchor))
        table = np.full(exists.shape, -1)
        table[anchor, combo] = cells
        axes = combos[combo]

        # boundary of [v; a_0 < ... < a_{k-1}]: (-1)^(i+1) on [v; drop a_i]
        # and (-1)^i on [v + e_{a_i}; drop a_i]
        lower = {c: j for j, c in enumerate(combinations(range(n), k - 1))}
        faces, signs = [], []
        for i in range(k):
            face = np.array([lower[c[:i] + c[i + 1:]] for c in combinations(range(n), k)],
                            dtype=int)[combo]
            for corner, sign in ((anchor, (-1.0) ** (i + 1)), (nxt[axes[:, i], anchor], (-1.0) ** i)):
                faces.append(cell_table[k - 1][corner, face])
                signs.append(np.full(len(cells), sign))
        faces, signs = np.column_stack(faces), np.column_stack(signs)
        order = np.argsort(faces, axis=1, kind="stable")
        incidence.append((np.take_along_axis(faces, order, 1), np.take_along_axis(signs, order, 1)))
        cell_table.append(table)
        cell_anchor.append(anchor)
        cell_axes.append(axes)

    # the complement of the c-th axis combination of degree k is the c-th
    # from last of degree n-k, and a cell and its complement share the anchor
    dual_pairs = []
    for k in range(4):
        if not 0 <= n - k <= 3:
            dual_pairs.append(None)
            continue
        table, comp = cell_table[k], cell_table[n - k][:, ::-1]
        both = (table >= 0) & (comp >= 0)
        dual_pairs.append((table[both], comp[both]))

    axis = cell_axes[1][:, 0]
    edge_link = np.where(axis > 0, links[axis - 1, cell_anchor[1]], -1)
    return SpacetimeComplex(
        lattice=lattice,
        n_t=n_t,
        dt=dt,
        cell_table=tuple(cell_table),
        cell_anchor=tuple(cell_anchor),
        cell_axes=tuple(cell_axes),
        incidence=tuple(incidence),
        dual_pairs=tuple(dual_pairs),
        edge_link=edge_link,
    )


def assemble_potential(cx, A_series, phi_series):
    """Spacetime connection 1-cochain from per-sample (A, phi) data.

    Spatial edges carry the integrated link phase of their sample; time
    edges carry phi * dt at the source vertex.  LatticeError unless every
    connection sample holds n_links finite values (only the +e_k links
    are read) and every potential sample is a ScalarField.
    """
    A_series = list(A_series)
    phi_series = list(phi_series)
    if len(A_series) != cx.n_t or len(phi_series) != cx.n_t:
        raise ComplexError(
            f"need {cx.n_t} samples, got {len(A_series)} connection and "
            f"{len(phi_series)} potential samples"
        )
    n_links = cx.lattice.n_links
    A = np.empty((cx.n_t, n_links))
    for i, a in enumerate(A_series):
        a = np.asarray(a, dtype=float)
        if a.shape != (n_links,) or not np.isfinite(a).all():
            raise LatticeError(f"connection sample {i} must hold {n_links} finite values, "
                               f"shape ({n_links},); got shape {a.shape}")
        A[i] = a
    phi = np.array([scalar_field(cx.lattice, f) for f in phi_series])
    it, site = np.divmod(cx.cell_anchor[1], cx.lattice.n_sites)
    vals = np.where(cx.edge_link >= 0, A[it, cx.edge_link], phi[it, site] * cx.dt)
    return Cochain(cx, 1, vals)


def d_cochain(omega):
    """Coboundary: signed boundary sums of a k-cochain over its complex's (k+1)-cells."""
    cx, k = omega.complex, omega.degree
    if k not in (0, 1, 2):
        raise ComplexError(f"coboundary defined for degrees 0..2, got {k}")
    faces, signs = cx.incidence[k]
    terms = signs * omega.values[faces]
    out = np.zeros(len(faces))
    for term in terms.T:
        out += term
    return Cochain(cx, k + 1, out)


def _boundary(cx, k, w):
    """D_k^T w: the (k+1)-cell values w summed onto the k-cells, each k-cell
    taking its cells' signed terms in increasing cell id."""
    faces, signs = cx.incidence[k]
    weights = signs.ravel() * np.repeat(w, faces.shape[1])
    return np.bincount(faces.ravel(), weights=weights, minlength=cx.n_cells(k))


@dataclass(frozen=True, eq=False)
class HodgeStar:
    """Diagonal Hodge factors of one complex under one spacetime metric:
    factors[k] holds lambda for every k-cell, k = 0..3, and g00 is the
    metric's upper lapse entry, whose sign is that of det g."""

    complex: SpacetimeComplex
    factors: tuple
    g00: float


def hodge_factors(cx, metric=None):
    """The Hodge star of every degree of cx under metric, a SpacetimeMetric
    over cx's lattice with one sample (static) or one per slice at cx.dt, and
    a diagonal spatial part at every vertex; None is flat Lorentzian.  Per cell

    lambda = eps(S, S~) sqrt|det g| prod_{mu in S} g^mumu
             * prod_{nu in S~} h_nu / prod_{mu in S} h_mu

    with sqrt|det g| = 1 / sqrt(|g00| prod_k g^kk) and all metric data at
    the cell's anchor vertex, so a cell and its complement share factors
    and ** reduces to a pure sign.
    """
    n_verts, ns, d = cx.n_cells(0), cx.lattice.n_sites, cx.lattice.ndim
    g00, fields = -1.0, np.broadcast_to(np.eye(d), (1, ns, d, d))
    if metric is not None:
        g00, fields = float(metric.g00), metric.fields
    if fields.shape[0] not in (1, cx.n_t):
        raise ComplexError(f"metric lift has {fields.shape[0]} samples; the complex has "
                           f"{cx.n_t} time slices, so 1 or {cx.n_t} are needed")
    if fields.shape[1:] != (ns, d, d):
        raise ComplexError(f"metric lift has {fields.shape[1]} sites in {fields.shape[2]}-d; "
                           f"the complex's lattice has {ns} sites in {d}-d")
    if metric is not None and metric.lattice.spec != cx.lattice.spec:
        raise ComplexError(f"metric lift is over {metric.lattice.spec}; the complex's "
                           f"lattice is {cx.lattice.spec}")
    if fields.shape[0] > 1 and metric.dt != cx.dt:
        raise ComplexError(f"metric lift has dt = {metric.dt}; the complex has dt = {cx.dt}")
    _diagonal_only(fields)
    it, site = np.divmod(np.arange(n_verts), ns)
    g = fields[it if fields.shape[0] == cx.n_t else 0, site]
    gup = np.column_stack([np.full(n_verts, g00), np.diagonal(g, axis1=1, axis2=2)])
    sqrt_det = 1.0 / np.sqrt(np.abs(gup[:, 0]) * np.prod(gup[:, 1:], axis=1))
    h = np.asarray(cx.spacings)
    factors = []
    for k in range(4):
        out = np.empty(cx.n_cells(k))
        for c, axes in enumerate(combinations(range(cx.n), k)):
            comp = tuple(a for a in range(cx.n) if a not in axes)
            cells = cx.cell_table[k][:, c]
            at = np.flatnonzero(cells >= 0)
            # eps(S, S~): the sign of the permutation axes + comp
            lam = (-1) ** sum(nu < mu for mu in axes for nu in comp) * sqrt_det[at]
            for mu in axes:
                lam = lam * (gup[at, mu] / h[mu])
            for nu in comp:
                lam = lam * h[nu]
            out[cells[at]] = lam
        factors.append(out)
    return HodgeStar(cx, tuple(factors), g00)


def _diagonal_only(g):
    """Refuse inverse metrics g (..., d, d) off the diagonal by more than 1e-12 relative."""
    size = np.abs(g)
    off = np.where(np.eye(g.shape[-1], dtype=bool), 0.0, size).max(axis=(-2, -1))
    if np.any(off > 1e-12 * np.maximum(1.0, size.max(axis=(-2, -1)))):
        raise ComplexError("Hodge star supports diagonal spatial metrics only")


def _complex_of(star, omega, degree=None):
    """The star's complex, once omega is a cochain of it (of the given degree)."""
    if omega.complex is not star.complex:
        raise ComplexError("cochain and Hodge star belong to different complexes")
    if degree is not None and omega.degree != degree:
        raise ComplexError(f"need a {degree}-cochain, got degree {omega.degree}")
    return star.complex


def hodge(star, omega):
    """Diagonal Hodge dual: k-cochain -> (n-k)-cochain.

    Dual cells are identified with the complementary-axes cell at the
    same anchor; on fully periodic directions the identification is a
    bijection and applying the star twice gives
    (-1)^(k(n-k)) * sign(det g) exactly.  Cells whose complement is
    missing (open boundary at the top) drop out.
    """
    cx, k = _complex_of(star, omega), omega.degree
    nk = cx.n - k
    if nk < 0:
        raise ComplexError(f"a degree-{k} cochain has no dual on a {cx.n}-dimensional complex")
    if nk > 3:
        raise ComplexError(f"no degree-{nk} cells in this complex, the dual of a degree-{k} "
                           f"cochain on a {cx.n}-dimensional complex")
    src, dst = cx.dual_pairs[k]
    out = np.zeros(cx.n_cells(nk))
    out[dst] += star.factors[k][src] * omega.values[src]
    return Cochain(cx, nk, out)


def current(star, F):
    """External sources j = *d*F of the field strength F, a 2-cochain.

    Computed as the codifferential (star1^-1 D1^T star2) F so the
    continuity identity holds structurally; j is a 1-cochain on primal
    edges.
    """
    cx = _complex_of(star, F, 2)
    w = _boundary(cx, 1, star.factors[2] * F.values)
    return Cochain(cx, 1, w / star.factors[1])


def continuity_defect(star, j):
    """max |d * j|: exact zero up to rounding for j = current(...)."""
    top = _boundary(_complex_of(star, j, 1), 0, star.factors[1] * j.values)
    return float(np.max(np.abs(top), initial=0.0))


def double_star_defect(star, omega):
    """max |**omega - (-1)^(k(n-k)) sign(g00) omega| / max |omega|.

    Taken over the cells whose complement exists (the others drop out of
    the star); zero up to rounding for a consistent diagonal star.
    """
    cx, k = _complex_of(star, omega), omega.degree
    twice = hodge(star, hodge(star, omega)).values
    want = (-1) ** (k * (cx.n - k)) * np.sign(star.g00) * omega.values
    src, _ = cx.dual_pairs[k]
    scale = np.max(np.abs(omega.values), initial=0.0)
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(twice[src] - want[src]), initial=0.0) / scale)
