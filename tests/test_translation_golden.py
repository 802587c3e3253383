"""Pinned CLI output of the logic translations.

The fresh variable names these commands print (y0, S0, Z0, X0, ...)
depend on the order in which the translations walk formulas, so any
change to the renaming and traversal code must leave this output
byte-identical.  The expected output lives in golden_translations.json:
README's example, ``fixtures.min_wait_sentence()``, and a sentence with
a disjunction, a first-order quantifier and a bound set variable inside
a boolean test, which exercises selector, singleton and bound-set
renaming.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from watl import fixtures, wrdl
from watl.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_translations.json")
                    .read_text(encoding="utf-8"))


def test_golden_cases_use_the_documented_formulas():
    assert GOLDEN["readme"]["formula"] == "B(ex x. P[a](x))"
    assert GOLDEN["min_wait"]["formula"] == wrdl.to_text(fixtures.min_wait_sentence())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_translation_output_is_pinned(tmp_path, case):
    expected = GOLDEN[case]
    runner = CliRunner()
    formula = tmp_path / "f.txt"
    formula.write_text(expected["formula"], encoding="utf-8")

    def run(*args):
        result = runner.invoke(main, list(args), catch_exceptions=False)
        assert result.exit_code == 0
        return result.stdout

    assert run("canonicalize", "--formula", str(formula),
               "--monoid", "sum0") == expected["canonicalize"]
    forth = run("to-nivat", "--formula", str(formula), "--monoid", "sum0",
                "--alphabet", "a,b")
    assert forth == expected["to-nivat"]
    triple = tmp_path / "t.json"
    triple.write_text(forth, encoding="utf-8")
    assert run("from-nivat", "--triple", str(triple),
               "--monoid", "sum0") == expected["from-nivat"]
