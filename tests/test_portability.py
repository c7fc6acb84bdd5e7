"""Report bytes that hold on any IEEE-754 machine and any supported Python.

The run path computes with correctly rounded operations only: ``+ - * /``,
``math.sqrt``, ``math.ldexp``, ``math.frexp``, ``round``, ``math.fsum``
and the functions of ``accel_eval.fmath`` built from them.  A static check
keeps libm, numpy and the builtin ``sum`` out of the run-path modules, and
a committed output directory is rerun and compared byte for byte.
"""

import ast
import os
from pathlib import Path

import pytest

from accel_eval import cli

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "accel_eval"
GOLDEN = Path(__file__).resolve().parent / "golden"

RUN_PATH = ("__init__", "cli", "config", "cross_entropy", "distributions", "estimation",
            "fmath", "plant", "runner", "scenario")
# Exact or correctly rounded: everything else in math calls libm.
MATH_OK = {"ceil", "copysign", "fabs", "floor", "frexp", "fsum", "inf", "isfinite", "isinf",
           "isnan", "ldexp", "nan", "nextafter", "pi", "sqrt", "trunc", "ulp"}
MODULES_BANNED = ("numpy", "scipy", "statistics", "cmath")


def _int_literal(node) -> int | None:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _int_literal(node.operand)
        return None if v is None else (-v if isinstance(node.op, ast.USub) else v)
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


def _problems(tree: ast.AST) -> list[str]:
    out = []
    for n in ast.walk(tree):
        where = f"line {getattr(n, 'lineno', '?')}"
        if isinstance(n, ast.Import):
            out += [f"{where}: import {a.name}" for a in n.names
                    if a.name.split(".")[0] in MODULES_BANNED]
        elif isinstance(n, ast.ImportFrom):
            mod = n.module or ""
            if mod.split(".")[0] in MODULES_BANNED:
                out.append(f"{where}: from {mod} import")
            if mod == "math":
                out += [f"{where}: from math import {a.name}" for a in n.names
                        if a.name not in MATH_OK]
        elif isinstance(n, ast.Attribute):
            if isinstance(n.value, ast.Name) and n.value.id == "math" and n.attr not in MATH_OK:
                out.append(f"{where}: math.{n.attr}")
        elif isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Pow):
            # Only an int power of an int literal is exact; a float power calls libm's pow.
            base = _int_literal(n.left if isinstance(n, ast.BinOp) else n.target)
            power = _int_literal(n.right if isinstance(n, ast.BinOp) else n.value)
            if base is None or power is None or power < 0:
                out.append(f"{where}: ** on floats")
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name):
            # sum() rounds differently on Python 3.12 (compensated) than before.
            if n.func.id in ("sum", "pow"):
                out.append(f"{where}: builtin {n.func.id}()")
    return out


@pytest.mark.parametrize("module", RUN_PATH)
def test_run_path_uses_only_correctly_rounded_operations(module):
    path = PKG / f"{module}.py"
    assert _problems(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_portability_check_sees_each_banned_form():
    code = (
        "import numpy as np\nfrom statistics import NormalDist\nfrom math import exp\n"
        "import math\ny = math.log(2.0)\nz = 2.0 ** 0.5\nw = 2 ** -53\nv = sum([0.1])\n"
        "u = pow(2.0, 3)\nt = 3\nt **= 2\nok = 1 << 53\nok2 = 2 ** 10\nok3 = math.fsum([0.1])\n"
    )
    found = _problems(ast.parse(code))
    assert len(found) == 9, found


def test_golden_run_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    # One estimate does not converge within the small sample cap: exit 2.
    assert cli.main(["run", "--config", str(GOLDEN / "config.yaml"), "--out", str(out)]) == 2
    want = sorted(os.listdir(GOLDEN / "out"))
    assert sorted(os.listdir(out)) == want
    for name in want:
        assert (out / name).read_bytes() == (GOLDEN / "out" / name).read_bytes(), name
