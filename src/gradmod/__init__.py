"""gradmod: exact block-operator toolkit for graded Hilbert modules.

Standard modules over the polynomial algebra in d variables are stored
exactly in orthonormal level bases, each coordinate operator as a weighted
index map between levels.  A coordinate tuple, of a module or of a quotient,
is one (d, h_{n+1}, h_n) array per level n.  On top of that the package
provides graded submodules and quotients, degree and reducing structure, the
row-operator linearization machinery, Koszul complexes with Dirac-square and
syzygy checks, and Schatten-class essential-normality diagnostics.
"""

from .completion import (
    StandardModule,
    WeightSequence,
    commutator_decomposition_residual,
    fock_level_weights,
    make_weights,
    number_trace_report,
    oscillation_report,
    row_sum_residual,
    summability_report,
)
from .koszul import (
    KoszulComplex,
    betti_numbers,
    betti_table,
    build_koszul,
    dirac_square_residual,
    solve_syzygy,
)
from .linearize import (
    LinearizationResult,
    SubspaceV,
    WindowExhausted,
    ev_gradient_levels,
    ev_quotient,
    ev_space,
    induced_map_report,
    kernel_containment_residual,
    kernel_levels,
    linearize_full,
    pullback,
    recover_subspace,
    shift_quotient,
)
from .monomials import (
    LevelBasis,
    level_dimension,
    monomial_basis,
)
from .normality import (
    CounterexampleReport,
    SchattenReport,
    alternating_block_sequence,
    compression_identity_residuals,
    quotient_en_report,
    resolvent_projection,
    resolvent_quadrature,
    schatten_report,
    self_commutators,
    similarity_counterexample,
    spectral_projection_oracle,
)
from .submodules import (
    DegreeReport,
    GradedSubmodule,
    QuotientModule,
    VectorPolynomial,
    monomial_generator,
    parse_generator_line,
    parse_generators,
)
from .trends import classify_trend

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
