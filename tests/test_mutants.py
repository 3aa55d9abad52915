"""tools/mutants.py's catalogue matches the tree: each snippet occurs once
in its file, and each named test file exists. Running the mutants is left
to the tool."""

import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "mutants", os.path.join(ROOT, "tools", "mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_snippet_occurs_once_and_its_tests_exist(mutant):
    assert mutants.occurrences(mutant, ROOT) == 1
    assert mutant.snippet != mutant.replacement and mutant.tests
    for test in mutant.tests:
        assert os.path.isfile(os.path.join(ROOT, test.split("::")[0])), test
