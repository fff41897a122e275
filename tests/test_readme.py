"""README.md's examples run as typed, and the names it cites exist."""

import contextlib
import importlib
import io
import re
import shlex
import sys
from pathlib import Path

import oracles
import pytest

from maxmod import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = ("tracer", "roots", "modulus", "poly", "util", "classify", "cli", "_kernels", "svg")
# the options through which a command names a file it writes
WRITES = ("--csv", "--svg", "--out")


def section_block(heading: str, lang: str) -> str:
    """The first fenced ``lang`` block after the ``## heading`` line."""
    rest = README[README.index(f"\n## {heading}\n") :]
    return re.search(rf"```{lang}\n(.*?)```", rest, re.S).group(1)


def cli_commands() -> list[str]:
    text = section_block("CLI", "sh").replace("\\\n", " ")
    return [line for line in text.splitlines() if line.startswith("maxmod ")]


def test_cli_block_has_the_four_commands():
    assert [c.split()[1] for c in cli_commands()] == ["classify", "trace", "trace", "hunt"]


@pytest.mark.parametrize("command", cli_commands())
def test_cli_command_runs_as_typed(command, tmp_path, monkeypatch, capsys):
    argv = shlex.split(command)[1:]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr()
    written = [argv[i + 1] for i, arg in enumerate(argv) if arg in WRITES]
    for name in written:
        assert (tmp_path / name).stat().st_size > 0, name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)


def test_library_block_prints_its_comments():
    """Every ``print`` line of the Library block that ends in a comment
    prints that comment; the other lines only have to run."""
    code = section_block("Library", "python")
    printed: dict[int, list[str]] = {}

    def record(*args):
        out = io.StringIO()
        print(*args, file=out)
        printed.setdefault(sys._getframe(1).f_lineno, []).append(out.getvalue().rstrip("\n"))

    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, "README.md", "exec"), {"print": record})
    expected = {
        n: line.split("#", 1)[1].strip()
        for n, line in enumerate(code.splitlines(), start=1)
        if line.lstrip().startswith("print(") and "#" in line
    }
    assert list(expected.values()) == ["1 True MAGIC (1, 2)", "2"]
    for n, want in expected.items():
        assert printed[n] == [want]


def cited_names() -> set[str]:
    """Every ``module.name`` of the package's modules inside a backticked
    span of README.md, with or without a leading ``maxmod.``."""
    spans = re.findall(r"`([^`\n]+)`", README)
    pattern = rf"(?<![\w.])(?:maxmod\.)?((?:{'|'.join(MODULES)})\.\w+(?:\.\w+)*)"
    return {name for span in spans for name in re.findall(pattern, span)}


def test_cited_names_are_found():
    assert {"tracer.count_components", "roots.critical_points", "modulus.on_axis"} <= cited_names()


@pytest.mark.parametrize("name", sorted(cited_names()))
def test_cited_name_resolves(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"maxmod.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"README.md cites `{name}`, which does not exist"
        obj = getattr(obj, attr)


ORACLES = sorted(set(re.findall(r"`tests/oracles\.py::(\w+)`", README)))


def test_oracles_are_cited():
    assert "predict_J" in ORACLES


@pytest.mark.parametrize("name", ORACLES)
def test_cited_oracle_resolves(name):
    assert hasattr(oracles, name), f"README.md cites `tests/oracles.py::{name}`, which does not exist"
