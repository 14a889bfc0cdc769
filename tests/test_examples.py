"""Every example must at least import: ``runpy`` executes each script's
module body (its imports and definitions) without reaching ``main()``,
which sits behind ``if __name__ == "__main__"``.  An example is the
last importer a deleted module could hide behind."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_loads(path):
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace.get("main"))
