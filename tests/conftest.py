import os


def pytest_configure(config):
    """Let `python -m glyphforge.cli` subprocesses import the working tree's src/.

    `pythonpath` in pyproject.toml covers the test process only.
    """
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
