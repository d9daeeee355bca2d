"""geomqm: covariant Schroedinger operators on lattices and the geometry
they induce.

Forward direction: assemble H = Delta(A, g) + phi on a discretized
configuration space from an inverse metric, a U(1) connection and a
scalar potential.  Inverse direction: recover all three from a given
Hamiltonian through commutator row sums, certify the underlying axioms,
and derive the induced spacetime structures (geodesics of the Lorentzian
lift, homogeneous Maxwell identities, Aharonov-Bohm holonomies).
"""

from .evolution import heisenberg_evolve, heisenberg_residual, propagator, unitarity_defect
from .geometry import (
    AnalyticMetric,
    LatticeMetricInterpolant,
    SpacetimeMetric,
    Trajectory,
    christoffel,
    geodesic_integrate,
    lorentzian_lift,
    zeroth_residual,
)
from .holonomy import (
    TopologyError,
    ab_spectrum,
    chern_number,
    flat_connection,
    flatness_defect,
    loop_holonomy,
)
from .lattice import (
    Lattice,
    LatticeError,
    LatticeSpec,
    build_lattice,
    connection_from_components,
    constant_metric,
    d0,
    generators_pi1,
    link_field,
    plaquette_sums,
    scalar_field,
)
from .maxwell import (
    Cochain,
    ComplexError,
    SpacetimeComplex,
    assemble_potential,
    build_spacetime_complex,
    continuity_defect,
    current,
    d_cochain,
    double_star_defect,
    hodge,
)
from .operators import (
    HermitianOperator,
    OperatorError,
    build_hamiltonian,
    commutator,
    covariant_laplacian,
    eigenvalues,
    identity_op,
    load_operator,
    mult_op,
    row_sum_field,
    save_operator,
    validate_operator,
)
from .reconstruct import (
    AxiomReport,
    LocalityViolation,
    PeierlsDecomposition,
    PhaseAmbiguity,
    ReconstructionReport,
    axiom_report,
    coordinate_cure_residual,
    cure_residual,
    default_test_vector,
    gauge_transform,
    link_average_metric,
    metric_row_sum_field,
    peierls_decompose,
    reassemble,
    reconstruct_metric,
    reconstruct_potential,
    reconstruction_report,
    roundtrip_report,
    tree_gauge_canonicalize,
    tree_gauge_connection,
    tree_gauge_potential,
    velocity,
    wrap_angle,
)

__version__ = "0.1.0"
