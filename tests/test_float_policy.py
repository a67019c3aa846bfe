"""numpy's floating-point flags never decide a run.

Every check decides on a test of the values it computed: non-finite tests,
floors and the pd check.  Overflow gives ±inf and an invalid operation nan,
and those tests catch them; numpy's flags only record that it happened.  So
numpy's error state is set once, to ignore every flag, where a run or a
build starts (``checks.run_checks`` and ``scenario.build_scenario``), and
nowhere else in the package.  A kernel called directly follows its caller's
error state.  Under pytest's warnings-as-errors filter, a numpy warning that
escaped the policy would end ``finsym run`` with exit 3.
"""

import ast
import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsym.checks import run_scenario
from finsym.cli import main
from finsym.symplectic import nondegeneracy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "finsym")
CONFIGS = sorted(os.path.join(folder, name)
                 for folder in (os.path.join(ROOT, "configs"),
                                os.path.join(ROOT, "tests", "data"))
                 for name in os.listdir(folder) if name.endswith(".json"))

# the functions that carry the policy, as (module, name)
_ENTRY_POINTS = {("checks", "run_checks"), ("scenario", "build_scenario")}
_POLICY = "np.errstate(all='ignore')"
# numpy's setters of its error state
_SETTERS = {"errstate", "seterr", "seterrcall"}


def _setter_uses(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in _SETTERS
            or isinstance(node, ast.Name) and node.id in _SETTERS
            or isinstance(node, ast.alias) and node.name in _SETTERS]


def test_the_error_state_is_set_only_at_the_entry_points():
    """Every use of numpy's error-state setters in ``src/finsym`` is the
    policy decorating an entry point, and both entry points carry it."""
    placed, stray = set(), []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        module = fname[:-3]
        with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), fname)
        policy = set()
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and (module, node.name) in _ENTRY_POINTS):
                for decorator in node.decorator_list:
                    if ast.unparse(decorator) == _POLICY:
                        placed.add((module, node.name))
                        policy.add(id(decorator.func))
        stray += [f"{fname}:{node.lineno}" for node in _setter_uses(tree)
                  if id(node) not in policy]
    assert stray == []
    assert placed == _ENTRY_POINTS


def test_a_run_leaves_the_callers_error_state():
    """The policy holds inside a run only: a run whose energy jet
    overflows leaves numpy's error state as it found it, and a kernel
    called directly still warns under the caller's state."""
    with open(os.path.join(ROOT, "configs", "polar_riemannian.json")) as fh:
        cfg = json.load(fh)
    cfg["metric"]["g"] = [["1", "0"], ["0", "(1+x2^2)*1e308"]]
    cfg["sampling"]["count"] = 4
    before = np.geterr()
    assert not run_scenario(cfg).all_passed()
    assert np.geterr() == before
    with pytest.raises(RuntimeWarning):
        nondegeneracy(np.diag([1e200, 1e200])[None])


# magnitudes spliced into configs: near overflow, subnormal, and -0.0
_MAGNITUDES = ("1e308", "1e-308", "5e-324", "1e-320", "1e200", "1e-200",
               "-0.0")
# string entries of a config that are not expressions
_NAMES = {"family", "kind", "mode"}


def _sites(node, path=()):
    """The path of each expression entry and box bound in a config."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        here = path + (key,)
        if isinstance(value, str) and key not in _NAMES:
            yield here
        elif (isinstance(value, (int, float)) and not isinstance(value, bool)
              and {"lower", "upper"} & set(path)):
            yield here
        else:
            yield from _sites(value, here)


def _splice(value, how, magnitude):
    """An expression with the magnitude as a factor, summand or divisor,
    or a bound scaled by it, moved by it or set to it."""
    if isinstance(value, str):
        return f"({value}){how}({magnitude})"
    m = float(magnitude)
    return {"*": value * m, "+": value + m, "/": m}[how]


def _strict(constant):
    raise ValueError(f"report holds {constant}")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_extreme_magnitudes_exit_with_a_contract_code(data):
    """An in-tree config with extreme magnitudes spliced into its
    expressions and box bounds, at most 6 base points, exits 0, 1 or 2
    with a strict-JSON report and neither an internal error nor a
    traceback on stderr."""
    with open(data.draw(st.sampled_from(CONFIGS), label="config")) as fh:
        cfg = json.load(fh)
    cfg["sampling"]["count"] = min(cfg["sampling"]["count"], 6)
    sites = list(_sites(cfg))
    for _ in range(data.draw(st.integers(1, 3), label="splices")):
        *path, key = data.draw(st.sampled_from(sites), label="site")
        owner = cfg
        for step in path:
            owner = owner[step]
        owner[key] = _splice(owner[key], data.draw(st.sampled_from("*+/")),
                             data.draw(st.sampled_from(_MAGNITUDES)))
    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", config, "--out", out])
        report = b""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                report = fh.read()
    assert code in (0, 1, 2), err.getvalue()
    assert "internal error" not in err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == (report == b"")
    for line in report.decode("utf-8").splitlines():
        json.loads(line, parse_constant=_strict)
