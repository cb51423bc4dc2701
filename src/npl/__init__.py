"""npl: exact-arithmetic experiments on polynomial coefficient spaces."""

from .algebra import (
    DEFAULT_TERM_CAP,
    AffineForm,
    MonomialIndex,
    PolySpace,
    PrimeField,
    SparsePoly,
    is_prime,
)
from .circuits import (
    AffineMatrixMap,
    Circuit,
    CircuitBuilder,
    FamilyDescriptor,
    FamilySample,
    berkowitz_det,
    derive_seed,
    det_projection,
    sample_family_with_params,
    sps_build,
    validate_member,
)
from .meta import (
    CircuitMeta,
    CoeffMatrix,
    MinorMeta,
    MinorSelection,
    RankMethodSpec,
    coordinate_meta,
    discriminant,
    linear_meta,
    matrix_det,
    matrix_rank,
    partials_matrix,
    rank_mod_p,
    shifted_partials_matrix,
)
from .pit import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_TRIALS,
    AuditReport,
    HitReport,
    PitVerdict,
    generator_pit,
    identity_test,
    natural_proof_audit,
    pit_exhaustive,
    pit_schwartz_zippel,
    succinct_hitting_check,
)
from .ips import (
    Cnf,
    GeometricCertificate,
    PolynomialSystem,
    VerificationReport,
    boolean_axiom_circuit,
    clause_circuit,
    cnf_to_system,
    compose_system,
    parse_dimacs,
    verify_certificate,
)
from . import errors

__version__ = "0.1.0"
