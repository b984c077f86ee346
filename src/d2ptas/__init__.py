"""Clustering with cost-weighted sampling: a (1+eps)-approximation engine for
k-means and generalized k-median objectives (quadratic forms and convex-generator
divergences), plus exact small-scale oracles and property-check machinery."""

__version__ = "0.1.0"

from .errors import (
    ClusteringError,
    ConfigError,
    DimensionMismatch,
    DomainError,
    EmptyFile,
    EmptySet,
    InsufficientPoints,
    ParseError,
    RaggedRows,
    TooLarge,
    UnsupportedMeasure,
)
from .divergences import (
    DivergenceMeasure,
    GenericBregman,
    ItakuraSaito,
    KullbackLeibler,
    Mahalanobis,
    PropertyReport,
    SquaredEuclidean,
    as_points,
    assign,
    centroid,
    centroid_report,
    check_centroid_property,
    check_mu_similarity,
    cluster_cost,
    mu_similarity_report,
    symmetry_report,
    triangle_report,
)
from .sampler import (
    CenterSet,
    RngStream,
    d2_sample,
    empirical_distribution_check,
    weighted_draw,
)
from .ptas import (
    ClusteringResult,
    Exhaustive,
    PtasConfig,
    RandomTrials,
    default_eta,
    find_best_over_k,
    find_k_means,
    find_k_median,
    kmeanspp_seed,
    lloyd,
    paper_scale_constants,
    parse_strategy,
    run_one_restart,
)
from .oracle import (
    ORACLE_N_CAP,
    IrreducibilityReport,
    OracleResult,
    inaba_trial,
    irreducibility,
    optimal_bruteforce,
)
from .cli import generate_planted, ingest_csv, run_experiment, write_points_csv
