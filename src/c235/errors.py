"""Exception hierarchy shared across the package."""


class C235Error(Exception):
    """Base class for all library errors."""

    rows = None  # on a stack of points, the mask of the points the error holds at

    @classmethod
    def raise_where(cls, bad, message) -> None:
        """Raise cls(message) where `bad` holds.

        `bad` is a condition at one point, or a boolean mask over a stack of
        points (an array with a leading point axis); a mask raises only if
        some entry holds, and the error's `rows` is that mask. `message` is
        a string, or a function of no arguments that formats one: it is
        called only to raise, so a check that passes formats nothing.
        """
        if getattr(bad, "ndim", 0):
            if bad.any():
                exc = cls(message if isinstance(message, str) else message())
                exc.rows = bad
                raise exc
        elif bad:
            raise cls(message if isinstance(message, str) else message())


class DivisionByZeroJet(C235Error):
    pass


class BranchError(C235Error):
    pass


class BasepointMismatch(C235Error):
    pass


class NonInvertibleJet(C235Error):
    pass


class SeriesDomainError(C235Error):
    pass


class PoleError(C235Error):
    pass


class SingularPointError(C235Error):
    pass


class LinearDependenceError(C235Error):
    pass


class ZeroWronskianError(C235Error):
    pass


class DomainError(C235Error):
    pass


class InvalidParam(C235Error):
    pass


class DegenerateError(C235Error):
    pass


class SingularCoframeError(C235Error):
    pass


class SingularMetricError(C235Error):
    pass


class UnknownCaseId(C235Error):
    pass
