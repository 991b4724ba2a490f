"""Colored permutation groups G(r,p,n), the generalized Robinson-Schensted
correspondence, and exact evaluation of their one-dimensional sign
representations from either side of the correspondence."""

from .errors import GrpnError
from .group import (
    GroupElement,
    GroupParams,
    OneDimValue,
    enumerate_group,
    generator,
    identity,
    make_element,
    parse_element,
    subgroup_generators,
)
from .rs import (
    RSPair,
    ascending_moves,
    ascending_representative,
    is_ascending_element,
    left_admissible,
    right_admissible,
    rs_inverse,
    rs_map,
)
from .signs import (
    VerificationReport,
    decompose_ascending,
    pi,
    pi_from_tableaux,
    verify_admissible,
    verify_membership,
    verify_theorem,
)
from .tableaux import (
    Multitableau,
    StandardTableau,
    multipartitions,
    standard_multitableaux,
    standard_tableaux,
)

__version__ = "0.1.0"
