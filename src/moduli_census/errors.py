"""Exception types shared across the package."""


class InvalidCharacteristicError(ValueError):
    """Field construction rejected: characteristic must be an odd prime."""


class BudgetError(RuntimeError):
    """A size budget (field order, enumeration count) would be exceeded."""


class DomainError(ValueError):
    """Arguments violate a documented precondition."""


class UnsupportedRankError(DomainError):
    """Exact stratum sums are only available for total rank <= 3."""


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree exactly did not; names the failed check."""


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the offending coefficient index."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index
