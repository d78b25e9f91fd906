"""Exact CM-value norms on Fricke curves, numeric cross-validation, and
Hilbert class polynomial construction."""

from .arith import (
    Factorization,
    INFINITE_PLACE,
    factorize,
    hilbert_symbol,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    ord_q,
)
from .cmvalue import diff_set, o_of_m, rho
from .crosscheck import RELATIVE_TOLERANCE, admissible_pairs, run_crosscheck
from .gzrhs import (
    DEFAULT_RAMIFIED_EXPONENT,
    RAMIFIED_OF_M,
    RAMIFIED_OF_MD,
    GZParams,
    LatticeTerm,
    PrimeLogSum,
    TermContribution,
    enumerate_terms,
    gz_log_norm,
    term_contribution,
)
from .hauptmodul import (
    DEFAULT_PRECISION,
    ETA_QUOTIENT_PRIMES,
    PrecisionConfig,
    QSeries,
    eta_quotient_qseries,
    hauptmodul_value,
    lhs_log_norm,
    load_qseries,
    reduce_point,
)
from .hcp import (
    CLASS_NUMBER_ONE_DISCRIMINANTS,
    GENUS_ZERO_FRICKE_PRIMES,
    ClassPolynomial,
    ClassPolyReport,
    InterpolationPair,
    build_pairs,
    class_polynomial,
    feasible,
    interpolate,
    resolve_signs,
    s_set,
    usable_s_set,
)
from .quadforms import (
    HeegnerPoint,
    QuadraticForm,
    admissible_residues,
    class_number,
    heegner_point,
    heegner_reps,
    reduce,
)

__version__ = "0.1.0"
