"""Exception hierarchy shared across the package: one class per case a
handler tells apart."""


class BundleMinError(Exception):
    """Base class for all library errors."""


class InvalidPoint(BundleMinError):
    """A point off its graph or base: a program fault, never a refused
    argument, so ``except WrongInput`` does not turn it into a config error."""


class WrongInput(BundleMinError):
    """An argument the library refuses."""


# analysis
class NoProbes(BundleMinError):
    pass


class NotCircleCase(BundleMinError):
    pass


# cli
class ConfigError(BundleMinError):
    pass


class SchemaError(BundleMinError):
    pass


class CapExceeded(BundleMinError):
    pass
