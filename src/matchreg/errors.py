"""Exception types raised across the library."""


class MatchregError(Exception):
    """Base class for all library errors."""


class DegenerateMesh(MatchregError):
    """Mesh has zero total surface area."""


class EmptyCloud(MatchregError):
    """An operation produced or received a point cloud with no points."""


class DegenerateView(MatchregError):
    """Viewpoint coincides with a cloud point."""


class TooFewPoints(MatchregError):
    """Cloud is too small for the requested neighborhood size."""


class ChannelMismatch(MatchregError):
    """Feature tensors disagree on channel count."""


class EmptyBatch(MatchregError):
    """Batch normalization received no data."""


class ShapeMismatch(MatchregError):
    """Array shapes are inconsistent with the cached forward pass."""


class NonPositiveLambda(MatchregError):
    """Sinkhorn regularization weight must be positive."""


class EmptyGroundTruth(MatchregError):
    """Ground-truth correspondence matrix contains no entries."""


class DegenerateMatches(MatchregError):
    """Too few, zero-weight, or collinear matches for a rigid solve."""


class EmptyInput(MatchregError):
    """Aggregation over an empty sample list."""


class NaNLoss(MatchregError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite loss or gradient at iteration {iteration}")
        self.iteration = iteration


class PlyParseError(MatchregError):
    """Malformed PLY content."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class ManifestNotFound(MatchregError):
    """Dataset directory has no manifest.json."""


class CorruptDataset(MatchregError):
    """Dataset contents disagree with the manifest."""


class ConfigError(MatchregError):
    """Bad configuration key or value (CLI exit code 2)."""
