"""Discretized configuration spaces.

A lattice is a product grid in d in {1,2,3} dimensions with a mix of
periodic and open (Dirichlet) axes, fixed by a named topology:

    interval   d=1, open
    ring       d=1, periodic
    rectangle  d=2, open x open
    cylinder   d=2, periodic x open
    torus      d=2, periodic x periodic
    box3       d=3, open

Cells and fields:
  * sites carry integer coordinates and embedding positions x_k = i_k * h_k
  * directed links join nearest neighbours along each axis, plus (for
    d >= 2) the two diagonals of every 2D coordinate plane; these carry
    the metric cross terms
  * plaquettes are the elementary axis 2-cells (oriented link cycles)
  * one generating cycle of the fundamental group per periodic axis

Fields are plain numpy arrays:
  * ScalarField  -- one float per site, shape (n_sites,)
  * LinkField    -- one float per directed link, shape (n_links,),
    antisymmetric under link reversal.  Connection link fields store the
    integrated line integral of the one-form along the link (a phase),
    not a per-length component; this makes d0, gauge shifts and loop
    holonomies exact identities.
  * MetricField  -- one symmetric positive-definite d x d matrix of
    inverse-metric components per site, shape (n_sites, d, d)

Everything is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

TOPOLOGIES = {
    # name -> (dimension, periodic flags per axis)
    "interval": (1, (False,)),
    "ring": (1, (True,)),
    "rectangle": (2, (False, False)),
    "cylinder": (2, (True, False)),
    "torus": (2, (True, True)),
    "box3": (3, (False, False, False)),
}


class LatticeError(ValueError):
    """Invalid lattice specification or field data."""


@dataclass(frozen=True)
class LatticeSpec:
    """Shape of a discretized configuration space.

    sizes are per-axis integer site counts (each >= 3), spacings the
    finite per-axis lattice constants h_k > 0.  Periodic axes are fixed
    by the topology; open axes are Dirichlet (sites outside the box
    simply absent).
    """

    topology: str
    sizes: tuple
    spacings: tuple

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise LatticeError(f"unknown topology {self.topology!r}")
        ndim, _ = TOPOLOGIES[self.topology]
        if not all(isinstance(n, (int, np.integer)) for n in self.sizes):
            raise LatticeError(f"sizes must be integers, got {self.sizes}")
        sizes = tuple(int(n) for n in self.sizes)
        spacings = tuple(float(h) for h in self.spacings)
        if len(sizes) != ndim or len(spacings) != ndim:
            raise LatticeError(
                f"topology {self.topology!r} is {ndim}-dimensional, got "
                f"sizes={sizes} spacings={spacings}"
            )
        if any(n < 3 for n in sizes):
            raise LatticeError(f"all sizes must be >= 3, got {sizes}")
        if not all(0 < h < np.inf for h in spacings):
            raise LatticeError(f"all spacings must be positive and finite, got {spacings}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "spacings", spacings)

    @property
    def ndim(self):
        return TOPOLOGIES[self.topology][0]

    @property
    def periodic(self):
        return TOPOLOGIES[self.topology][1]


_Stencil = namedtuple("_Stencil", "steps axes signs column")


def _stencil(ndim):
    """Stencil steps in link order, their axis pairs and diagonal signs:
    axis steps +e_k, -e_k for each axis k, then the sign combinations
    (+,+), (+,-), (-,+), (-,-) of every plane diagonal (k, l), k < l;
    column[s + 1] is the link_table column of step s, -1 off the stencil."""
    e = np.eye(ndim, dtype=int)
    steps = [sk * e[k] for k in range(ndim) for sk in (1, -1)]
    axes = [(k, k) for k in range(ndim) for _ in (1, -1)]
    signs = [1] * len(steps)
    for k, l in combinations(range(ndim), 2):
        for sk, sl in product((1, -1), repeat=2):
            steps.append(sk * e[k] + sl * e[l])
            axes.append((k, l))
            signs.append(sk * sl)
    column = np.full((3,) * ndim, -1)
    column[tuple(np.transpose(steps) + 1)] = np.arange(len(steps))
    stencil = _Stencil(np.array(steps), np.array(axes), np.array(signs), column)
    for arr in stencil:  # shared by every lattice of the dimension
        arr.setflags(write=False)
    return stencil


_STENCILS = {d: _stencil(d) for d in (1, 2, 3)}


@dataclass(frozen=True, eq=False)
class Lattice:
    """A built lattice: sites, directed links, plaquettes, pi_1 cycles.

    link_table[s, c] is the id of the link leaving site s along stencil
    step c, or -1 where an open boundary cuts that step.  Stencil steps
    are ordered as axis steps +e_0, -e_0, +e_1, -e_1, ..., then the four
    sign combinations (+,+), (+,-), (-,+), (-,-) of each plane diagonal
    (k, l), k < l; link ids run site-major in that step order.  It is
    the only map from (site, step) to link: link_index reads it and
    raises KeyError where no link exists (step off the stencil, step cut
    by a boundary, site out of range).

    Link arrays are aligned: link i runs link_src[i] -> link_dst[i] along
    stencil column link_step[i], with reverse partner link_reverse[i].
    Row link_step[i] of the stencil tables is the link's class: its step
    (times the spacings, its minimal-image displacement), axis pair ((k, k)
    or (k, l), k < l) and diagonal sign (+1 on axis links).
    plaq_links[p] holds the four directed links traversing plaquette p's
    boundary (all with coefficient +1 against antisymmetric LinkFields).
    """

    spec: LatticeSpec
    coords: np.ndarray        # (n_sites, d) int
    positions: np.ndarray     # (n_sites, d) float
    link_table: np.ndarray    # (n_sites, n_steps) int, -1 where cut
    link_src: np.ndarray      # (n_links,) int
    link_dst: np.ndarray      # (n_links,) int
    link_step: np.ndarray     # (n_links,) int, link_table column
    link_reverse: np.ndarray  # (n_links,) int
    plaq_links: np.ndarray    # (n_plaq, 4) int
    pi1_generators: tuple     # one closed link-index cycle per periodic axis
    stencil: tuple            # per-step tables steps, axes, signs, column (_stencil)

    @property
    def ndim(self):
        return self.spec.ndim

    @property
    def n_sites(self):
        return len(self.coords)

    @property
    def n_links(self):
        return len(self.link_src)

    @property
    def sizes(self):
        return self.spec.sizes

    @property
    def spacings(self):
        return self.spec.spacings

    @property
    def periodic(self):
        return self.spec.periodic

    def link_index(self, site, step):
        """Directed link leaving `site` with integer step vector `step`.

        Raises KeyError where there is none (see the class docstring).
        """
        site, step = int(site), tuple(step)
        if len(step) == self.ndim and set(step) <= {-1, 0, 1} and 0 <= site < self.n_sites:
            col = self.stencil.column[tuple(int(v) + 1 for v in step)]
            if col >= 0 and (link := self.link_table.item(site, col)) >= 0:
                return link
        raise KeyError((site, step))

    def axis_extent(self, k):
        """Physical length of axis k (circumference when periodic)."""
        n, h = self.sizes[k], self.spacings[k]
        return n * h if self.periodic[k] else (n - 1) * h

    def interior_mask(self):
        """Sites not touching any open-axis boundary."""
        mask = np.ones(self.n_sites, dtype=bool)
        for k in range(self.ndim):
            if not self.periodic[k]:
                c = self.coords[:, k]
                mask &= (c > 0) & (c < self.sizes[k] - 1)
        return mask

    def _minimal_image_steps(self, i, j):
        """Integer displacement from site(s) i to site(s) j, minimal image."""
        delta = self.coords[j] - self.coords[i]
        n = np.asarray(self.sizes)
        return np.where(self.periodic, (delta + n // 2) % n - n // 2, delta)

    def graph_distance(self, i, j):
        """Distance in the link graph (axis steps and plane diagonals).

        Each move changes at most two coordinates by one unit, so the
        distance of a minimal-image integer displacement delta is
        max(max_k |delta_k|, ceil(sum_k |delta_k| / 2)).  i and j may be
        site index arrays; scalar sites give an int.
        """
        a = np.abs(self._minimal_image_steps(i, j))
        dist = np.maximum(a.max(axis=-1), -(-a.sum(axis=-1) // 2))
        return int(dist) if dist.ndim == 0 else dist

    def minimal_image_displacement(self, i, j):
        """Physical displacement from site i to site j, minimal image.

        Shape (d,) for scalar sites, (n, d) for site index arrays.
        """
        return self._minimal_image_steps(i, j) * np.asarray(self.spacings)


def build_lattice(spec):
    """Construct a Lattice from its LatticeSpec.

    The spec has already refused site counts below 3 (stencils would be
    underdetermined and periodic wrap links would coincide with their
    reverses).
    """
    ndim = spec.ndim
    sizes = spec.sizes
    spacings = np.asarray(spec.spacings)
    periodic = spec.periodic

    coords = np.stack(
        [a.ravel() for a in np.meshgrid(*[np.arange(n) for n in sizes], indexing="ij")],
        axis=1,
    ).astype(int)
    positions = coords * spacings
    n_sites = len(coords)

    steps, _, _, column = _STENCILS[ndim]
    target = coords[:, None, :] + steps[None, :, :]  # (n_sites, n_steps, d)
    inside = np.all(((target >= 0) & (target < sizes)) | periodic, axis=-1)
    target_site = np.ravel_multi_index(tuple(np.moveaxis(target, -1, 0)), sizes, mode="wrap")
    src, col = np.nonzero(inside)  # site-major, then step order
    link_table = np.full(inside.shape, -1, dtype=int)
    link_table[src, col] = np.arange(len(src))
    dst = target_site[src, col]
    reverse = link_table[dst, column[tuple(1 - steps.T)][col]]

    # plaquette of plane (k, l) at site s: s -> s+e_k -> s+e_k+e_l -> s+e_l -> s,
    # where steps +e_k and -e_k are link_table columns 2k and 2k + 1
    planes = np.array(list(combinations(range(ndim), 2)), dtype=int).reshape(-1, 2)
    cycles = np.empty((n_sites, len(planes), 4), dtype=int)
    for p, (k, l) in enumerate(planes):
        cycles[:, p, 0] = link_table[:, 2 * k]
        cycles[:, p, 1] = link_table[dst[cycles[:, p, 0]], 2 * l]
        cycles[:, p, 2] = link_table[dst[cycles[:, p, 1]], 2 * k + 1]
        cycles[:, p, 3] = link_table[dst[cycles[:, p, 2]], 2 * l + 1]
    has_plaq = (link_table[:, 2 * planes[:, 0]] >= 0) & (link_table[:, 2 * planes[:, 1]] >= 0)
    plaq_links = cycles[has_plaq]

    # pi_1 generator of periodic axis k: the +e_k links along the axis
    # through the origin
    gens = tuple(
        link_table[np.arange(sizes[k]) * int(np.prod(sizes[k + 1:], dtype=int)), 2 * k]
        for k in range(ndim)
        if periodic[k]
    )

    arrays = dict(
        coords=coords,
        positions=positions,
        link_table=link_table,
        link_src=src,
        link_dst=dst,
        link_step=col,
        link_reverse=reverse,
        plaq_links=plaq_links,
    )
    for arr in (*arrays.values(), *gens):
        arr.setflags(write=False)
    return Lattice(spec=spec, pi1_generators=gens, stencil=_STENCILS[ndim], **arrays)


# ---------------------------------------------------------------------------
# fields

def scalar_field(lattice, values):
    """Validate and return a ScalarField array."""
    f = np.asarray(values, dtype=float)
    if f.shape != (lattice.n_sites,):
        raise LatticeError(f"scalar field shape {f.shape} != ({lattice.n_sites},)")
    if not np.all(np.isfinite(f)):
        raise LatticeError("scalar field has non-finite entries")
    return f


def link_field(lattice, values):
    """Validate a LinkField: finite and antisymmetric under reversal."""
    w = np.asarray(values, dtype=float)
    if w.shape != (lattice.n_links,):
        raise LatticeError(f"link field shape {w.shape} != ({lattice.n_links},)")
    if not np.all(np.isfinite(w)):
        raise LatticeError("link field has non-finite entries")
    defect = np.max(np.abs(w + w[lattice.link_reverse]), initial=0.0)
    if defect > 1e-12 * max(1.0, np.max(np.abs(w))):
        raise LatticeError(f"link field not antisymmetric (defect {defect:g})")
    return w


def metric_field(lattice, values):
    """Validate a MetricField (n_sites, d, d): finite, symmetric to link_field's tolerance,
    then positive definite at every site (eigvalsh reads one triangle, may pass a NaN)."""
    g = np.asarray(values, dtype=float)
    if g.shape != (shape := (lattice.n_sites, lattice.ndim, lattice.ndim)):
        raise LatticeError(f"inverse metric shape {g.shape} != {shape}")
    if not (np.isfinite(g).all()
            and np.abs(g - np.swapaxes(g, -1, -2)).max() <= 1e-12 * max(1.0, np.abs(g).max())
            and np.min(np.linalg.eigvalsh(g)) > 0):
        raise LatticeError("inverse metric must be symmetric positive definite at every site")
    return g


def d0(lattice, f):
    """Discrete differential of a scalar field: value f_j - f_i on link i->j.

    Plain difference; periodic wrap is handled entirely by the site
    identification, never by unwrapping values.
    """
    f = np.asarray(f, dtype=float)
    return f[lattice.link_dst] - f[lattice.link_src]


def connection_from_components(lattice, component_funcs):
    """Integrated link phases from per-axis component functions A_k(X),
    each evaluated once on the (n_links, d) array of link midpoints.

    Midpoint rule: theta_l = sum_k A_k(midpoint) * disp_k.  Exactly
    antisymmetric because both directions share the midpoint.
    """
    disp = lattice.stencil.steps[lattice.link_step] * np.asarray(lattice.spacings)
    mid = lattice.positions[lattice.link_src] + 0.5 * disp
    theta = np.zeros(lattice.n_links)
    for k, fn in enumerate(component_funcs):
        theta += fn(mid) * disp[:, k]
    return theta


def constant_metric(lattice, matrix=None):
    """MetricField with the same matrix on every site (identity default)."""
    d = lattice.ndim
    m = np.eye(d) if matrix is None else np.asarray(matrix, dtype=float)
    if m.shape == ():
        m = float(m) * np.eye(d)
    return np.broadcast_to(m, (lattice.n_sites, d, d)).copy()


def plaquette_sums(lattice, w):
    """Signed boundary sum of a LinkField over every plaquette."""
    if len(lattice.plaq_links) == 0:
        return np.zeros(0)
    return np.asarray(w)[lattice.plaq_links].sum(axis=1)
