"""The feature extractors: everything the package knows about each one, written down once.

An extractor reads one binary stage of the size-normalized glyphs and turns
a stack of that stage into one vector per image. Adding an extractor is one
entry in EXTRACTORS plus its feature function. Stage and feature functions
look their module's function up when called, so a wrapper set on
image_prep, chain_features or moment_features sees every call.
"""

from dataclasses import dataclass
from typing import Callable

from . import chain_features, image_prep, moment_features
from .errors import FormatError


@dataclass(frozen=True)
class Extractor:
    id: str
    dim: int
    stage: str  # the stage it reads: its key in the stages dict and its --dump-stages file suffix
    make_stage: Callable  # (N, H, W) normalized binary stack -> (N, H, W) stack of the stage
    features: Callable  # features(stage stack, flag on) -> (N, dim) vectors
    flag: str  # its one option: the flags key, as in the CSV header and the .mlp file, and the CLI dest
    flag_help: str
    hidden_size: int  # default hidden layer size of its MLP
    member_part: str  # its ensemble member file is <stem>.<member_part>.mlp


EXTRACTORS = {e.id: e for e in (
    Extractor(
        "chain200", chain_features.CHAIN_DIM, "contour", lambda scaled: image_prep.find_contour(scaled),
        lambda contours, on: chain_features.extract_chain_features(contours, normalize=on),
        "normalize", "normalize chain histograms by total move count", hidden_size=50, member_part="chain",
    ),
    Extractor(
        "moment63", moment_features.MOMENT_DIM, "thinned", lambda scaled: image_prep.thin(scaled),
        lambda thinned, on: moment_features.moment_zone_features(thinned, log_scale=on),
        "log_moments", "signed-log scale moment features", hidden_size=45, member_part="moment",
    ),
)}


def check_flags(extractor_id: str, flags, dim: int) -> None:
    """FormatError unless each flag is the extractor's own option and dim its dim; an unknown id has none, any dim."""
    extractor = EXTRACTORS.get(extractor_id)
    own = {extractor.flag} if extractor else set()
    if not set(flags) <= own:
        raise FormatError(f"flags {sorted(flags)}: extractor {extractor_id!r} has only {sorted(own)}")
    if extractor and extractor.dim != dim:
        raise FormatError(f"extractor {extractor_id} implies dim {extractor.dim}, got {dim}")
