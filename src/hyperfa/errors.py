"""Exception types shared across the package."""


class HyperfaError(Exception):
    """Base class for all package errors."""


class IllegalZipWord(HyperfaError):
    """A track resumes with a plain symbol after padding started."""


class IndexOutOfRange(HyperfaError):
    """An index sequence refers to a track outside [1..k]."""


class InvalidArity(HyperfaError):
    """Letter or word arity does not match the declared arity."""


class UnknownLetter(HyperfaError):
    """A word contains a letter outside the automaton alphabet."""


class AlphabetMismatch(HyperfaError):
    """Operands declare different alphabets."""


class WrongFragment(HyperfaError):
    """The quantifier prefix is outside the fragment the operation supports."""


class Unsupported(HyperfaError):
    """The requested combination of fragments has no decision procedure here."""


class InvalidInterleaving(HyperfaError):
    """A prefix interleaving pattern does not merge the two prefixes."""


class ResourceLimit(HyperfaError):
    """An operation would exceed the configured arity/size caps."""


class EmptyRegularLanguage(HyperfaError):
    """Regular membership is undefined for the empty language."""


class InvalidGraph(HyperfaError):
    """A graph instance is malformed (too small, bad vertex ids)."""


class FormatError(HyperfaError):
    """Acceptor or hyperword text does not follow the wire format."""


class HreSyntaxError(HyperfaError):
    """Expression text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityMismatch(HyperfaError):
    """A tuple letter's width differs from the quantifier count."""


class UnknownSymbol(HyperfaError):
    """An expression names a symbol outside the declared alphabet."""


class PreconditionViolated(HyperfaError):
    """A caller-checked precondition (e.g. completeness) does not hold."""


class TableNotClosed(HyperfaError):
    """Internal: a candidate was requested from an unclosed table."""


class QueryBudgetExceeded(ResourceLimit):
    """Closing the observation table exceeded the derived query budget."""


class BudgetExceeded(ResourceLimit):
    """The learner ran past config.max_iterations or config.max_k."""


class TeacherInconsistent(HyperfaError):
    """Teacher answers contradict each other (no distinguishing ordering)."""
