"""Smooth vs. singular semisimple points of the matrix variety A^2 = B^3.

The variety of pairs of invertible complex n x n matrices with
A^2 = B^3 carries an action by simultaneous conjugation; its semisimple
points decompose into rescaled simple modules of the quotient where
A^2 = B^3 = 1.  This package classifies which semisimple points are
smooth, entirely through integer lattice combinatorics (Euler forms of
two small quivers, a twist action by sixth roots of unity), and holds
every formula against numerical linear-algebra oracles built from
explicit matrices: a spin test for simplicity, cocycle / commutant
systems for extension dimensions, and the linearized relation for
tangent spaces.
"""

from .constants import B3, GAMMA, OMEGA
from .errors import (
    B3RepError,
    GenerationFailed,
    InvalidSpec,
    IsomorphicDistinctEntries,
    NotSimpleDimension,
    ToleranceAmbiguity,
    WitnessUnavailable,
)
from .extoracle import (
    DEFAULT_TOL,
    ToleranceConfig,
    coboundary_defects_numeric,
    cocycle_dim_numeric,
    cocycle_dims_numeric,
    ext_dim_numeric,
    ext_dims_numeric,
    hom_dim_numeric,
    hom_dims_numeric,
    numeric_rank,
)
from .factory import (
    RepPair,
    RepValidation,
    SemisimpleSpec,
    SimpleInstance,
    SpecEntry,
    assemble,
    derived_seed,
    entries_isomorphic,
    one_dim_rep,
    random_simple_gamma,
    random_simples_gamma,
    scale_rep,
    validate_rep,
)
from .geometry import (
    AnalysisReport,
    ComponentSignature,
    LocalQuiver,
    analyze,
    component_dim,
    component_signature,
    enumerate_component_signatures,
    ext_b3_spec,
    gln_embed,
    gln_retract,
    intersection_witnesses,
    local_quiver,
    tangent_dim_formula,
    tangent_dim_numeric,
    tangent_dims_numeric,
)
from .lattice import (
    EULER_MATRIX_HEX,
    GammaDimVector,
    HexDimVector,
    enumerate_hex,
    enumerate_simple_gamma,
    euler_gamma,
    euler_hex,
    ext_gamma_pair,
    ext_gamma_self,
    hex_to_gamma,
    is_simple_gamma,
    is_simple_hex,
    orbit_class,
    orbit_gamma,
    simple_orbit_classes,
    twist_gamma,
)
from .scalars import ExactScalar, mu6_exponent
from .verify import LAMBDA_POOL, SUITE_NAMES, SuiteResult, random_spec, run_suite

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "B3", "B3RepError", "ComponentSignature", "DEFAULT_TOL",
    "EULER_MATRIX_HEX", "ExactScalar", "GAMMA", "GammaDimVector",
    "GenerationFailed", "HexDimVector", "InvalidSpec",
    "IsomorphicDistinctEntries", "LAMBDA_POOL", "LocalQuiver",
    "NotSimpleDimension", "OMEGA", "RepPair", "RepValidation",
    "SemisimpleSpec", "SimpleInstance", "SpecEntry", "SUITE_NAMES",
    "SuiteResult", "ToleranceAmbiguity", "ToleranceConfig",
    "WitnessUnavailable", "analyze", "assemble",
    "coboundary_defects_numeric", "cocycle_dim_numeric",
    "cocycle_dims_numeric", "component_dim", "component_signature", "derived_seed",
    "entries_isomorphic", "enumerate_component_signatures", "enumerate_hex",
    "enumerate_simple_gamma", "euler_gamma", "euler_hex", "ext_b3_spec",
    "ext_dim_numeric", "ext_dims_numeric", "ext_gamma_pair", "ext_gamma_self",
    "gln_embed", "gln_retract", "hex_to_gamma", "hom_dim_numeric", "hom_dims_numeric",
    "intersection_witnesses", "is_simple_gamma", "is_simple_hex",
    "local_quiver", "mu6_exponent", "numeric_rank",
    "one_dim_rep", "orbit_class", "orbit_gamma", "random_simple_gamma",
    "random_simples_gamma", "random_spec", "run_suite", "scale_rep",
    "simple_orbit_classes", "tangent_dim_formula", "tangent_dim_numeric",
    "tangent_dims_numeric",
    "twist_gamma", "validate_rep",
]
