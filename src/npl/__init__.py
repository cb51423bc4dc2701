"""npl: exact-arithmetic experiments on polynomial coefficient spaces.

The package namespace holds the entry points of each layer; everything else
is imported from its submodule."""

from .algebra import PolySpace, PrimeField, SparsePoly
from .circuits import Circuit, FamilyDescriptor
from .meta import discriminant, matrix_rank, partials_matrix
from .pit import identity_test, natural_proof_audit, succinct_hitting_check
from .ips import verify_certificate
from . import errors

__version__ = "0.1.0"
