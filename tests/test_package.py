"""How the package's modules depend on one another, and what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mqss

PACKAGE = Path(mqss.__file__).parent
# a numpy generator's internals, which only ``streams`` reads or drives
GENERATOR_INTERNALS = {"bit_generator", "random_raw", "advance", "SeedSequence", "PCG64"}


def parsed_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_no_module_imports_a_private_name_from_a_sibling():
    private = [
        (module, node.lineno, alias.name)
        for module, tree in parsed_modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("mqss"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_only_streams_names_a_generators_internals():
    named = set()
    for module, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Constant):  # as in getattr(rng, "bit_generator")
                names = [node.value]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [part for alias in node.names for part in alias.name.split(".")]
            else:
                continue
            named.update((module, name) for name in names if name in GENERATOR_INTERNALS)
    assert {module for module, _ in named} == {"streams"}


def test_no_module_reads_or_writes_a_generators_state():
    # the package draws by its own array rules, so nothing needs numpy's stream position
    touched = [
        (module, node.lineno)
        for module, tree in parsed_modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "state"
    ]
    assert touched == []


@pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2, reason="numpy 1.x imports numpy.random with numpy"
)
def test_importing_the_package_does_not_import_numpy_random():
    # numpy.random's import would add 15 to 24 ms to every start
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    script = "import sys, mqss; print('numpy.random' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "False"
