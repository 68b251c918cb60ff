import numpy as np
import pytest

from glyphforge import dataset_io as dio
from glyphforge import pipeline
from glyphforge.errors import FormatError


@pytest.fixture(scope="module")
def samples():
    return dio.synth_corpus(3, 4, seed=11)


def test_extract_tables_matches_single_extractor_tables(samples):
    extractors = [("chain200", {"normalize": True}), ("moment63", {"log_moments": True})]
    tables = pipeline.extract_tables(samples, extractors)
    for table, (extractor_id, flags) in zip(tables, extractors):
        single = pipeline.extract_table(samples, extractor_id, flags)
        assert (table.extractor_id, table.dim, table.flags) == (extractor_id, single.dim, flags)
        assert [r[:2] for r in table.rows] == [r[:2] for r in single.rows]
        assert all(np.array_equal(a[2], b[2]) for a, b in zip(table.rows, single.rows))


def test_preprocess_stages_runs_only_needed_stages(samples):
    image = samples[0].image
    assert set(pipeline.preprocess_stages(image, ["chain200"])) == {"binary", "scaled", "contour"}
    assert set(pipeline.preprocess_stages(image, ["moment63"])) == {"binary", "scaled", "thinned"}


@pytest.mark.parametrize("extractor_id", ["", "chain100"])
def test_unknown_extractor_is_format_error(samples, extractor_id):
    with pytest.raises(FormatError):
        pipeline.extract_features(samples[0].image, [(extractor_id, {})])
