"""Trained bytes pinned per (OpenBLAS core, numpy AVX-512 target): an ensemble and a crossval at a fixed seed.

A small synth corpus trains an ensemble for a few epochs and runs a 2-fold
crossval through the CLI. The digests of both members, the .glyph, the
predict lines and the crossval report must equal this host kernel's row of
the table; moment63 training is chaotic, so any change to a float
operation of training shows. On a key the table lacks the test skips and
prints its digests, so that a runner on a new kernel shows, not passes.
"""

import hashlib

import pytest
from kernel_key import kernel_key

from glyphforge import cli

NAMES = ("ens.chain.mlp", "ens.moment.mlp", "ens.glyph", "cv.txt", "predict")
GOLDEN = {
    ("SkylakeX", True):
        ("2757696dc5d5b464", "18390082d8855ff8", "b49bd9466818a272", "7b6d9b0f6117b906", "c63039e50727ea54"),
    ("SkylakeX", False):
        ("a1cc77f4d9e1f7de", "5cfd0cf022cad19e", "b49bd9466818a272", "7b6d9b0f6117b906", "c63039e50727ea54"),
    ("Haswell", True):
        ("f83a513150aec73d", "c07b39020c698dc9", "b49bd9466818a272", "7b6d9b0f6117b906", "c63039e50727ea54"),
    ("Haswell", False):
        ("ae0af0f0f7a1f39f", "c38192963eec6176", "b49bd9466818a272", "7b6d9b0f6117b906", "c63039e50727ea54"),
    ("Nehalem", True):
        ("88cd2b95bb950210", "fa45311fcacd9e51", "b49bd9466818a272", "7b6d9b0f6117b906", "c63039e50727ea54"),
    ("Nehalem", False):
        ("5699666e7441a494", "c44b0c0cc28bd284", "b49bd9466818a272", "7b6d9b0f6117b906", "c63039e50727ea54"),
}


def test_trained_bytes_match_kernel_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # predict prints each image's path as given: keep it relative
    assert cli.main(["synth", "--classes", "5", "--per-class", "12", "--seed", "4", "--out", "corpus"]) == 0
    for extractor in ("chain200", "moment63"):
        assert cli.main(["extract", "--corpus", "corpus", "--extractor", extractor, "--out", f"{extractor}.csv"]) == 0
    assert cli.main([
        "train", "--features", "chain200.csv", "--features2", "moment63.csv", "--epochs", "6", "--seed", "3",
        "--out", "ens.glyph",
    ]) == 0
    capsys.readouterr()
    assert cli.main(["predict", "--model", "ens.glyph", "--dir", "corpus/c01", "-k", "3"]) == 0
    predicted = capsys.readouterr().out.encode()
    argv = ["crossval", "--corpus", "corpus", "--folds", "2", "--epochs", "4", "--seed", "3", "--out", "cv.txt"]
    assert cli.main(argv) == 0
    data = [(tmp_path / name).read_bytes() for name in NAMES[:-1]] + [predicted]
    got = {name: hashlib.sha256(d).hexdigest()[:16] for name, d in zip(NAMES, data)}
    key = kernel_key()
    if key not in GOLDEN:
        with capsys.disabled():
            print(f"\nno trained-bytes golden for {key}: {got}")
        pytest.skip(f"no trained-bytes golden for {key}: {got}")
    assert got == dict(zip(NAMES, GOLDEN[key]))
