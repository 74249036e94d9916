"""The committed mutation set stays aimed at the code it mutates."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_each_mutant_old_text_occurs_once_in_its_file():
    for mutant in mutants.MUTANTS:
        assert mutants.occurrences(mutant) == 1, mutant.name
        assert mutant.old != mutant.new, mutant.name


def test_each_mutant_has_a_unique_name_and_existing_tests():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in mutants.MUTANTS:
        assert mutant.tests, mutant.name
        for test in mutant.tests:
            assert (ROOT / test.split("::")[0]).is_file(), (mutant.name, test)
