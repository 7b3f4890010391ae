"""Exception hierarchy. Every error raised by this package derives from BmplaneError."""


class BmplaneError(Exception):
    """Base class for all bmplane errors."""


# -- gauge construction ------------------------------------------------------

class NotStarShaped(BmplaneError):
    """Some ray from the origin misses the polygon boundary or crosses it more than once."""


class NotSymmetric(BmplaneError):
    """Vertex set is not equal to its antipodal image and symmetrization was not requested."""


class OriginOutside(BmplaneError):
    """The origin is not strictly interior to the polygon."""


class InvalidExponent(BmplaneError):
    """p-norm exponent outside [1, inf] or NaN."""


class NonPositiveSample(BmplaneError):
    """A radial sample is zero, negative, or not finite."""


class TooFewSamples(BmplaneError):
    """Fewer than 8 radial samples."""


# -- ellipse layer -----------------------------------------------------------

class NotInCone(BmplaneError):
    """Coefficient triple violates a2 > |(b2, c2)|: rho^-2 is not positive at every angle."""


class NotPD(BmplaneError):
    """Matrix is not symmetric positive definite."""


# -- solver ------------------------------------------------------------------

class NoConvergence(BmplaneError):
    """A repeated or singular exchange reference, its round cap or a triple outside the cone;
    R <= 0 or not finite at a scanned angle, or a scan with no extremum; a body scale whose
    triple or inscribed triple overflows; or an oracle log r span past the float range."""


class NoAlternance(BmplaneError):
    """A solve cannot certify its ellipse: an exchange level exceeds the scanned sup-norm (the
    scan missed extrema), its reference's angles do not interleave, or the certificate's bracket,
    sup - max(0, least signed deviation), is wider than the solver's ``_CERT_TOL``."""


# -- report ------------------------------------------------------------------

class ConeViolation(BmplaneError):
    """The certificate angles do not interleave: phi1 < psi1 < phi2 < psi2 < phi1 + pi fails."""


# -- cli / io ----------------------------------------------------------------

class InputError(BmplaneError):
    """Malformed input file, descriptor, or report."""


class EmptyGrid(InputError):
    """Oracle angle grid out of range: n_phi below 8."""
