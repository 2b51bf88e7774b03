"""Exception types raised across the toolkit."""


class ZigpruneError(Exception):
    """Base class for all toolkit errors."""


class GraphError(ZigpruneError):
    """Base class for graph construction / validation failures."""


class CycleDetected(GraphError):
    pass


class DanglingEdge(GraphError):
    pass


class UnknownKindString(GraphError):
    pass


class ShapeMismatch(GraphError):
    """Runtime tensor does not match the declared interface."""


class ShapeMismatchAtSDJoint(GraphError):
    """A shape-dependent joint received inputs of differing shapes."""


class FlattenWithoutKnownSpatialDims(GraphError):
    pass


class PartitionError(ZigpruneError):
    """Group partition hit an unsupported or inconsistent topology."""


class InconsistentStemWidths(PartitionError):
    pass


class KExceedsGroupCount(ZigpruneError):
    pass


class CompressionError(ZigpruneError):
    pass


class AllGroupsZeroInComponent(CompressionError):
    pass


class ShapeMismatchAfterPrune(CompressionError):
    pass


class ConfigError(ZigpruneError):
    pass


class TrainingDiverged(ZigpruneError):
    """The loss or the gradient went non-finite; ``step`` is the global
    optimizer step (0-based) whose forward/backward produced it."""

    def __init__(self, step: int, what: str):
        super().__init__(f"training diverged at step {step}: non-finite {what}")
        self.step = step
