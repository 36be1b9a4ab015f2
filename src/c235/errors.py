"""Exception hierarchy shared across the package."""


class C235Error(Exception):
    """Base class for all library errors."""


class DivisionByZeroJet(C235Error):
    pass


class BranchError(C235Error):
    pass


class BasepointMismatch(C235Error):
    pass


class NonInvertibleJet(C235Error):
    pass


class StencilEvaluationError(C235Error):
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


class ZeroDenominatorError(C235Error):
    pass


class DomainError(C235Error):
    pass


class InvalidParam(C235Error):
    pass


class DegenerateError(C235Error):
    pass


class SingularCoframeError(C235Error):
    rows = None  # on a stack of points, the mask of the singular ones


class SingularMetricError(C235Error):
    rows = None  # on a stack of points, the mask of the singular ones


class UnknownCaseId(C235Error):
    pass
