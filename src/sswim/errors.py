"""Exception types shared across the package."""


class SswimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SswimError):
    """A run configuration is malformed or references missing resources."""


class EmptyGridError(SswimError):
    """A time grid of length zero was requested."""


class DegenerateDistributionError(SswimError):
    """All pair probabilities are zero; nothing can be sampled."""


class TrivialPairError(SswimError):
    """A sampled pair produced identical contributions (zero criterion matrix)."""


class DegenerateNeuronError(SswimError):
    """A neuron's voltage trace is constant; it cannot be normalized."""


class SilentNetworkError(SswimError):
    """No hidden neuron emitted a single spike on the initialization batch."""


class NeuronError(SswimError):
    """Fitting one output neuron failed; ``neuron`` is its index."""

    def __init__(self, message, neuron=None):
        super().__init__(message)
        self.neuron = neuron


class EigensolverError(NeuronError):
    """The symmetric eigendecomposition failed to converge."""


class LambdaSearchError(NeuronError):
    """No regularization candidate gave a finite validation loss."""


class PipelineError(SswimError):
    """A training phase failed; carries the phase name for diagnostics and,
    for a failure in one hidden layer, its 1-based ``layer``."""

    def __init__(self, phase, cause, layer=None):
        where = "" if layer is None else f"layer {layer}: "
        super().__init__(f"phase '{phase}' failed: {where}{cause}")
        self.phase = phase
        self.cause = cause
        self.layer = layer
