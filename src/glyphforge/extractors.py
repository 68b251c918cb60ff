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
    features: Callable  # features(stage stack, option on) -> (N, dim) vectors
    flag: str  # its one on/off option's name: the key in the CSV header and the .mlp flags line, and the CLI dest
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


def read_option(extractor_id: str, options, dim: int) -> bool:
    """Whether the {key: value} options of a CSV header or .mlp flags line turn the extractor's option on.

    The one check that an extractor id is registered: an unregistered id,
    "" too, is a FormatError, and so is a value other than 0 or 1, a key
    other than the extractor's flag or a dim other than its dim.
    """
    extractor = EXTRACTORS.get(extractor_id)
    if extractor is None:
        raise FormatError(f"unknown extractor {extractor_id!r}")
    for key, value in options.items():
        if value not in ("0", "1"):
            raise FormatError(f"option {key}={value} is not 0 or 1")
        if key != extractor.flag:
            raise FormatError(f"{key} is not an option of extractor {extractor_id!r}")
    if extractor.dim != dim:
        raise FormatError(f"extractor {extractor_id} implies dim {extractor.dim}, got {dim}")
    return "1" in options.values()
