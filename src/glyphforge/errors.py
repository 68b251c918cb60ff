"""Exception types shared across the glyphforge pipeline."""


class GlyphforgeError(Exception):
    """Base class for all domain errors."""


class EmptyGlyph(GlyphforgeError):
    """Operation needs at least one foreground pixel."""


class ShapeError(GlyphforgeError):
    """Vector/matrix dimensions do not line up."""


class ExtractionError(GlyphforgeError):
    """Internal consistency failure during feature extraction."""


class TrainError(GlyphforgeError):
    """Training cannot proceed (e.g. empty dataset)."""


class DegenerateWeights(GlyphforgeError):
    """Both classifier success rates are zero; fusion weights undefined."""


class SplitError(GlyphforgeError):
    """A class has too few samples for the requested split."""


class LabelError(GlyphforgeError):
    """A label is absent from the model's class table."""


class CorpusError(GlyphforgeError):
    """Corpus directory is empty or malformed."""


class FormatError(GlyphforgeError):
    """A serialized file fails validation on load."""


class IoError(GlyphforgeError):
    """An image or data file could not be read."""


class ConfigError(GlyphforgeError, ValueError):
    """A training or evaluation setting is out of range."""
