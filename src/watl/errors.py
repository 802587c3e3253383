"""Exception types shared across the library."""


class WatlError(Exception):
    """Base class for all library-specific errors."""


class ModelValidationError(WatlError):
    """Raised when a model fails structural validation.

    Collects every violation found so callers see the full list at once.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ParseError(WatlError):
    """Raised on malformed guard strings or formula text.

    ``position`` is the zero-based offset into the source text; messages
    show it as a one-based column after the ``reason``.
    """

    def __init__(self, message, position=None):
        self.reason = message
        self.position = position
        if position is not None:
            message = f"{message} (column {position + 1})"
        super().__init__(message)


class DomainError(WatlError):
    """Raised when a weight value lies outside a monoid's domain."""


class UnsoundCompositionError(WatlError):
    """Raised when a product would multiply run weights unsoundly.

    Intersecting a weighted automaton with an ambiguous language component
    duplicates accepting runs, and over a non-idempotent monoid the
    duplicated weights change the sum.  The constant-one series over the
    counting monoid intersected with an ambiguous acceptor of all words is
    the canonical configuration rejected here.
    """


class FragmentError(WatlError):
    """Raised when a formula falls outside a required fragment."""


class PreimageCapError(WatlError):
    """Raised when preimage enumeration would exceed the configured cap."""


class UnsupportedGuardError(WatlError):
    """Raised when a canonical guard cannot be compiled to an automaton.

    The decision procedures compile canonical guard families of any size
    directly to timed automata.  They refuse a set quantifier inside a
    guard, and a first-order existential whose body tests the position
    outside it other than by ``<=`` with its bound one, or mentions a
    position two binders out.
    """
