"""Exact Temperley-Lieb recoupling at level 4, the four-anyon braid
representation it induces, and machine verification that the image group
is the order-162 SU(3) subgroup D(9,1,1;2,1,1)."""

from .cyclo import Cyclo, NonDivisibleOrderError, Rational, root_of_unity, sqrt2, sqrt3
from .matrix import NotUnitaryError, UnitaryMatrix
from .recoupling import (
    InadmissibleTripleError,
    TheoryParams,
    VertexExponents,
    ZeroDenominatorError,
    admissible,
    delta_n,
    quantum_fact,
    quantum_int,
    r_value,
    sixj,
    tet,
    theory,
    theta,
)
from .braidrep import (
    EmptyBasisError,
    FusionBasis,
    PhaseMismatchError,
    fusion_basis,
    paper_generators,
    sigma_mid,
    sigma_odd,
    su3_normalize,
)
from .matgroup import (
    FiniteMatrixGroup,
    GpElement,
    GroupTooLargeError,
    SemidirectReport,
    abelian_invariants,
    check_relations,
    close,
    conjugacy_classes,
    decompose,
    element_order,
    find_isomorphism,
    intersect,
    is_normal,
    semidirect_verify,
    subgroup,
    word_eval,
)
from .su3families import CParams, DParams, c_generators, d_generators
from .verify import VerificationReport, run_theorem1_verification
from .cli import export_group, query

__version__ = "0.1.0"
