"""Every library source compiles cleanly with warnings treated as errors, so
an invalid escape sequence cannot hide until a newer Python promotes it;
every exported name resolves, so a deleted function cannot stay exported;
and the README lists exactly the CLI's commands, so a deleted or renamed
command cannot stay documented."""

import pathlib
import re
import warnings

import oscillabound
from oscillabound import cli


def test_sources_compile_without_warnings():
    sources = sorted(pathlib.Path(oscillabound.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def test_every_exported_name_resolves():
    assert not [name for name in oscillabound.__all__ if not hasattr(oscillabound, name)]


def test_readme_lists_every_command():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = re.findall(r"^oscillabound (\S+) config\.json", readme, flags=re.MULTILINE)
    assert sorted(documented) == sorted(cli._COMMANDS)
