"""The scripts call the oracle's exact_table directly; run or import each."""

import importlib.util
from fractions import Fraction
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_circulant_formula_comparison_k4_rows(capsys):
    load("circulant_formula_comparison").main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    k4 = {int(row[1]): row for row in rows if row[:1] == ["4"]}
    assert sorted(k4) == [7, 11, 13]
    for n, row in k4.items():
        # exact value, corrected limit 4, uncorrected display 7: the gap is 3/N
        assert Fraction(row[2]) == 4 - Fraction(3, n)
        assert row[-2:] == ["4", "7"]


def test_verify_elliptic_clt_imports():
    assert callable(load("verify_elliptic_clt").main)
