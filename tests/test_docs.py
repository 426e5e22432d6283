"""Documentation consistency: links resolve, generated tables match code."""

from __future__ import annotations

import importlib.util
import pathlib
import re

import pytest

from repro.experiments import experiment_names
from repro.experiments.common import scales_markdown_table
from repro.report.linkcheck import check_file

ROOT = pathlib.Path(__file__).resolve().parent.parent

DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "examples" / "README.md",
]


@pytest.mark.parametrize("path", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_markdown_links_resolve(path):
    assert path.exists(), f"{path} missing"
    assert check_file(path) == []


def test_design_scale_table_is_generated_from_code():
    """The DESIGN.md tier table must match scales_markdown_table() exactly."""
    text = (ROOT / "DESIGN.md").read_text()
    begin = text.index("<!-- scales-table:begin -->")
    end = text.index("<!-- scales-table:end -->")
    embedded = text[begin:end].splitlines()[1:]
    embedded = "\n".join(line for line in embedded if line.strip())
    assert embedded == scales_markdown_table(), (
        "DESIGN.md tier table out of date; paste the output of "
        "repro.experiments.common.scales_markdown_table() between the "
        "scales-table markers"
    )


def test_readme_covers_every_registered_experiment():
    text = (ROOT / "README.md").read_text()
    for name in experiment_names():
        assert f"`{name}`" in text, f"README.md missing registry entry {name}"


def test_readme_documents_the_cli():
    text = (ROOT / "README.md").read_text()
    for command in ("python -m repro.report", "python -m repro.runner", "pip install -e ."):
        assert command in text


def _runnable(name: str) -> bool:
    """Whether ``python -m <name>`` would find something to run."""
    try:
        spec = importlib.util.find_spec(name)
        if spec is None or spec.submodule_search_locations is None:
            return spec is not None  # a plain module runs itself
        return importlib.util.find_spec(f"{name}.__main__") is not None
    except ModuleNotFoundError:
        return False


def test_documented_module_commands_exist():
    """Every ``python -m repro.<pkg>`` a doc advertises must be runnable."""
    commands = set()
    for path in DOCS:
        commands.update(re.findall(r"python3? -m (repro(?:\.\w+)+)", path.read_text()))
    assert "repro.runner" in commands
    missing = [name for name in sorted(commands) if not _runnable(name)]
    assert missing == [], f"docs advertise missing python -m targets: {missing}"
