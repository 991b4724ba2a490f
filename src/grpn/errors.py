"""Exception hierarchy shared across the package."""


class GrpnError(ValueError):
    """Base class for all validation and verification errors."""


class NotAPermutation(GrpnError):
    pass


class ColorOutOfRange(GrpnError):
    pass


class LengthMismatch(GrpnError):
    pass


class ParamsMismatch(GrpnError):
    pass


class IndexOutOfRange(GrpnError):
    pass


class InvalidP(GrpnError):
    pass


class InvalidParams(GrpnError):
    """A group parameter r, p or n below 1."""


class NotAMember(GrpnError):
    """An element of G(r,1,n) given where G(r,p,n) was asked for."""


class CapExceeded(GrpnError):
    pass


class ShapeMismatch(GrpnError):
    pass


class InvalidTableau(GrpnError):
    pass


class NotAdmissible(GrpnError):
    pass


class NotAscending(GrpnError):
    pass


class ParseError(GrpnError):
    pass
