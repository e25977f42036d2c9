"""Artinian Gorenstein algebras through mixed Hessians.

The package takes a homogeneous polynomial, forms the algebra of
differential operators modulo its annihilator, and studies the
multiplication maps by powers of linear forms through the matrices of
higher and mixed partial derivatives.  On top of that core sit the
facet algebras of simplicial complexes, a combinatorial
characterization of presentation by quadrics and of the weak Lefschetz
property for graphs, lifting constructions that transport Hessian
degeneracy to higher socle degrees, and generators for families of
algebras without the Lefschetz properties in every feasible
codimension.
"""

from .apolarity import (
    GradedAlgebra,
    InvariantViolation,
    QuadricsCheck,
    ann_generated_by_quadrics,
    bigraded_decomposition,
    build_algebra,
    unimodality_check,
)
from .complexes import (
    GraphAlgebraClass,
    NoninjectivityWitness,
    SimplicialComplex,
    alternate_hilbert_closed_form,
    attach_leaf,
    classify_graph_algebra,
    detect_complete_multipartite,
    dual_generator,
    grid_noninjectivity_witness,
    grid_pairs_for,
    hilbert_from_face_counts,
    is_facet_connected,
    is_flag,
    presented_by_quadrics_combinatorial,
    turan_complex,
    without_face,
)
from .config import DEFAULT_CONFIG, SamplingConfig
from .families import (
    CatalogEntry,
    DoubleLiftReport,
    FamilyMember,
    LiftReport,
    PerazzoReport,
    boolean_form,
    even_counterexample,
    example_catalog,
    odd_counterexample,
    perazzo_form,
    times_u,
    times_uv,
)
from .hessians import (
    MixedHessian,
    RankCertificate,
    SymbolicCapExceeded,
    bigraded_hessian,
    dual_mixed_hessian,
    evaluate_matrix,
    generic_rank,
    mixed_hessian,
    rank_at,
    symbolic_det,
)
from .lefschetz import (
    LefschetzVerdict,
    full_profile,
    generalization_check,
    mult_map_matrix,
    rank_profile,
    slp_check,
    wlp_check,
)
from .polyring import (
    LinearForm,
    ParseError,
    Polynomial,
    VarSet,
    apolar_apply,
    apolar_monomial,
    apolar_pairing,
    format_polynomial,
    grlex_key,
    linear_apply,
    monomial_exponents,
    parse_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "DEFAULT_CONFIG",
    "DoubleLiftReport",
    "FamilyMember",
    "GradedAlgebra",
    "GraphAlgebraClass",
    "InvariantViolation",
    "LefschetzVerdict",
    "LiftReport",
    "LinearForm",
    "MixedHessian",
    "NoninjectivityWitness",
    "ParseError",
    "PerazzoReport",
    "Polynomial",
    "QuadricsCheck",
    "RankCertificate",
    "SamplingConfig",
    "SimplicialComplex",
    "SymbolicCapExceeded",
    "VarSet",
    "alternate_hilbert_closed_form",
    "ann_generated_by_quadrics",
    "apolar_apply",
    "apolar_monomial",
    "apolar_pairing",
    "attach_leaf",
    "bigraded_decomposition",
    "bigraded_hessian",
    "boolean_form",
    "build_algebra",
    "classify_graph_algebra",
    "detect_complete_multipartite",
    "dual_generator",
    "dual_mixed_hessian",
    "evaluate_matrix",
    "even_counterexample",
    "example_catalog",
    "format_polynomial",
    "full_profile",
    "generalization_check",
    "generic_rank",
    "grid_noninjectivity_witness",
    "grid_pairs_for",
    "grlex_key",
    "hilbert_from_face_counts",
    "is_facet_connected",
    "is_flag",
    "linear_apply",
    "mixed_hessian",
    "monomial_exponents",
    "mult_map_matrix",
    "odd_counterexample",
    "parse_polynomial",
    "perazzo_form",
    "presented_by_quadrics_combinatorial",
    "rank_at",
    "rank_profile",
    "slp_check",
    "symbolic_det",
    "times_u",
    "times_uv",
    "turan_complex",
    "unimodality_check",
    "without_face",
    "wlp_check",
]
