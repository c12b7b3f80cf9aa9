"""Every library source compiles cleanly with warnings treated as errors, so
an invalid escape sequence cannot hide until a newer Python promotes it, and
every exported name resolves, so a deleted function cannot stay exported."""

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


def test_every_exported_name_resolves():
    assert not [name for name in oscillabound.__all__ if not hasattr(oscillabound, name)]
