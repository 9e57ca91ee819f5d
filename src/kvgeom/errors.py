"""Exception types shared across the package."""


class KVError(Exception):
    """Base class for all engine errors."""


class ZeroDenominator(KVError):
    """A rational-function denominator normalized to the zero polynomial."""


class DegreeOverflow(KVError):
    """A polynomial degree reached the width of a packed exponent field, or a power's coefficient its length cap."""


class UnknownVariable(KVError):
    """A variable is not a coordinate of the relevant chart."""


class PoleAtPoint(KVError):
    """Evaluation requested at a point where a denominator vanishes."""


class ChartMismatch(KVError):
    """Operands live on incompatible charts."""


class PreconditionViolated(KVError):
    """An operation's stated precondition does not hold for the inputs."""


class DegenerateBasis(KVError):
    """Submanifold basis vectors are linearly dependent."""


class NotCoisotropic(KVError):
    """Conormal algebroid requested on a non-coisotropic submanifold."""


class ClosureFailure(KVError):
    """Conormal product left the conormal module; signals an internal bug."""


class NotTransverse(KVError):
    """A map failed a required transversality condition."""


class InvalidAlgebra(KVError):
    """Structure constants violate commutativity/associativity/cocycle laws."""


class InvalidSubspace(KVError):
    """A declared subalgebra/ideal is not closed in the required sense."""


class EngineInconsistency(KVError):
    """Two routes that must agree (symbolic vs numeric, or dual formulas) disagreed."""


class _PositionedError(KVError):
    def __init__(self, line: int, column: int, message: str, token: str = ""):
        self.line = line
        self.column = column
        self.message = message
        self.token = token
        super().__init__(f"{line}:{column}: {message}" + (f" (at {token!r})" if token else ""))


class ParseError(_PositionedError):
    """Malformed scenario or expression text; line/column are 1-based."""


class SemanticError(_PositionedError):
    """Well-formed text with inconsistent meaning (duplicate name, bad reference, ...)."""
