"""Exception types shared across the package."""


class AdvdualError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AdvdualError):
    """Input that is malformed or out of range; the CLI exits 2 on it."""


class NonFiniteCoordinate(ValidationError):
    pass


class NegativeEpsilon(ValidationError):
    pass


class ZeroOneHasNoPhi(AdvdualError):
    """The zero-one loss has no margin function and no score-valued
    minimizer; it is scored through ``Loss.margins`` and ``cstar``."""


class EtaOutOfRange(AdvdualError):
    pass


class NegativeH(AdvdualError):
    pass


class MassMismatch(AdvdualError):
    """Transport requires equal total masses."""


class NegativeMass(ValidationError):
    pass


class InstanceTooLarge(AdvdualError):
    """Brute-force oracles only accept desk-scale instances."""


class InfeasiblePair(AdvdualError):
    """A pair of score fields violates the feasibility constraint."""


class InfeasibleDual(AdvdualError):
    """A dual solution violates its marginal or support constraints."""


class ParseError(AdvdualError):
    pass


class WriteError(AdvdualError):
    pass
