"""Exception hierarchy shared across the package."""


class BundleMinError(Exception):
    """Base class for all library errors."""


# graph construction / queries
class NonPositiveLength(BundleMinError):
    pass


class InvalidPoint(BundleMinError):
    pass


class NotACircle(BundleMinError):
    pass


class Disconnected(BundleMinError):
    pass


class ScaleError(BundleMinError):
    pass


class NotCircleSelfMap(BundleMinError):
    pass


# base systems
class OutOfRange(BundleMinError):
    pass


class BadBlowupCenter(BundleMinError):
    pass


class WrongInput(BundleMinError):
    pass


class SearchExhausted(BundleMinError):
    pass


# bundles / constructions
class NotHomeomorphism(BundleMinError):
    pass


class CirclesIntersect(BundleMinError):
    pass


class BadPattern(BundleMinError):
    pass


# analysis
class NoProbes(BundleMinError):
    pass


class NotCircleCase(BundleMinError):
    pass


class EmptyInput(BundleMinError):
    pass


# cli
class ConfigError(BundleMinError):
    pass


class SchemaError(BundleMinError):
    pass


class CapExceeded(BundleMinError):
    pass
