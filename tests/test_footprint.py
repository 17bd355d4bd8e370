"""What a fresh process loads: mpmath never, scipy only for SC maps.

Each check runs in its own interpreter, since this test session has both
libraries loaded already (the tests compare against mpmath values).
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import quasimap

SRC = str(Path(quasimap.__file__).resolve().parent.parent)


# defines loaded(): which of the two libraries the interpreter holds
PRELUDE = """
import json, sys

def loaded():
    return {lib: lib in sys.modules for lib in ("mpmath", "scipy")}
"""


def run_fresh(code: str, tmp_path) -> dict:
    """Run PRELUDE + ``code`` in a new interpreter that imports quasimap from this tree; return its last JSON line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_model_jobs_load_neither_mpmath_nor_scipy(tmp_path):
    out = run_fresh(
        """
import quasimap
from quasimap.cli import JobConfig, run
from quasimap.scmap import solve_sc

state = {"import": loaded()}
codes = {}
for command in ("expand", "verify", "dichotomy", "continue"):
    codes[command] = run(JobConfig(command=command, alpha="1/2", K=4, out=command))
arcs = [{"vertex": [0, 0], "coeffs": [[0, 0], [1, 0]]}, {"vertex": [0, 0], "coeffs": [[0, 0], [0, 1]]}]
with open("domain.json", "w") as f:
    json.dump({"arcs": arcs, "irrational_generators": {"footprint_gen": "1.2345"}}, f)
codes["analyze"] = run(JobConfig(command="analyze", input="domain.json", out="analyze"))
state["jobs"] = loaded()
solve_sc([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], ["1/2"] * 4)
state["sc"] = loaded()
print(json.dumps({"state": state, "codes": codes}))
""",
        tmp_path,
    )
    assert out["codes"] == {"expand": 0, "verify": 0, "dichotomy": 0, "continue": 0, "analyze": 0}
    assert out["state"]["import"] == {"mpmath": False, "scipy": False}
    assert out["state"]["jobs"] == {"mpmath": False, "scipy": False}
    # the first Gauss-Jacobi rule brings scipy in, and nothing brings mpmath
    assert out["state"]["sc"] == {"mpmath": False, "scipy": True}


def test_near_ties_order_without_mpmath(tmp_path):
    out = run_fresh(
        """
from fractions import Fraction

from quasimap.errors import AmbiguousExponentOrder
from quasimap.exponents import Exponent, declare_generator

sqrt2 = Exponent.generator("sqrt2")
below = Exponent(Fraction(1414213562373095, 10**15))
state = {"far": Exponent(1) < sqrt2 < Exponent(2)}
state["near"] = [below < sqrt2, sqrt2 < below]
# sqrt2's 52-digit decimal lies 7.3e-53 below it
digits = Exponent(Fraction("1.414213562373095048801688724209698078569671875376948"))
state["52_digits"] = [sqrt2 < digits, digits < sqrt2]
declare_generator("footprint_half", "0.5")
try:
    Exponent.generator("footprint_half") < Fraction(1, 2)
    state["tie"] = "ordered"
except AmbiguousExponentOrder:
    state["tie"] = "ambiguous"
state["loaded"] = loaded()
print(json.dumps(state))
""",
        tmp_path,
    )
    assert out["far"] and out["near"] == [True, False] and out["52_digits"] == [False, True]
    # only a declared generator of rational value ties, and nothing loads mpmath
    assert out["tie"] == "ambiguous" and out["loaded"]["mpmath"] is False
