"""Exact integer arithmetic on divisor lattices of Enriques and rational
surfaces: pairing computations, pencil-invariant certification, the
decomposition searches behind the case fixtures, and Gaussian-map
criteria checkers. Everything is stdlib-only and exact; no floats.
"""

from .errors import (
    DivcalcError,
    EvidenceError,
    ExprSyntaxError,
    FixtureError,
    LabelError,
    ModelError,
    ModelMismatchError,
    NodalClassError,
    NonCurveClassError,
    OverflowGuardError,
    PhiBoundError,
    PhiInvariantError,
    RangeError,
)
from .lattice import (
    DivClass,
    HodgeResult,
    LatticeModel,
    determinant,
    hodge_filter,
    isotropic_search,
    load_model,
    model_from_json_dict,
    pair,
    reflect_nodal,
    signature,
    slice_points,
    vectors_of_norm,
)
from .chamber import (
    E10_ROOTS,
    E10_WEIGHTS,
    PhiCertificate,
    check_phi_certificate,
    reduce_to_chamber,
)
from .surfaces import (
    PhiResult,
    QuasiNefResult,
    blcn,
    blq,
    chi,
    config_from_json_dict,
    enriques,
    genus,
    get_config,
    get_surface,
    list_configs,
    list_surfaces,
    mod4_condition,
    phi,
    quasi_nef_test,
    sigma,
)
from .divexpr import parse_divexpr, render, resolve
from .enumeration import (
    CaseFixture,
    CaseReport,
    Decomposition,
    DestabCandidate,
    DestabResult,
    EnumerationResult,
    FIXTURES,
    enumerate_bogreider,
    enumerate_destab,
    explainer,
    verify_all,
    verify_case,
)
from .criteria import (
    B2Rule,
    GaussianVerdict,
    ScrollInvariants,
    b2_rule_enriques,
    check_bel,
    check_cliff_criterion,
    check_degree_corollaries,
    check_main_theorem,
    cliff_upper_bound,
    clifford_of_series,
    corank_low_genus,
    gonality,
    scroll_invariants,
    tetragonal_corank,
)

__version__ = "0.1.0"
