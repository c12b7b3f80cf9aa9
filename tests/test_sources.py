"""Every library source compiles cleanly with warnings treated as errors, so
an invalid escape sequence cannot hide until a newer Python promotes it."""

import pathlib
import warnings

import oscillabound


def test_sources_compile_without_warnings():
    sources = sorted(pathlib.Path(oscillabound.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")
