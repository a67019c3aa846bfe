"""The benchmark's outside-in tracer still fits the package it wraps.

``perfbench/tracing.py`` names finsym functions by module and qualified
name and swaps them for timing wrappers; a rename or a moved function would
only surface when a traced benchmark run is made.  These tests load the
tracer by file path and exercise it on a tiny scenario.
"""

import importlib.util
import os
import sys

from finsym import checks

TRACING_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("finsym_perfbench_tracing",
                                                  TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(name):
    module_name, _, qualname = name.partition(".")
    target = sys.modules[f"finsym.{module_name}"]
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def _finsym_attributes():
    """Every module attribute of finsym, and every attribute of the
    classes defined there, keyed by owner name and attribute."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "finsym"
                                  or name.startswith("finsym.")):
            continue
        for attr, value in list(vars(module).items()):
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in list(vars(value).items()):
                    out[(name, attr, cattr)] = cvalue
    return out


def test_every_traced_name_resolves_to_a_callable():
    tracing = _load_tracing()
    for name in tracing.TRACED:
        assert callable(_resolve(name)), name


def test_tracer_restores_every_finsym_attribute():
    tracing = _load_tracing()
    config = {
        "dimension": 2,
        "metric": {"family": "custom", "F": "sqrt(y1^2+y2^2)",
                   "domain": {"lower": [-1, -1], "upper": [1, 1]}},
        "two_form": {"kind": "standard"},
        "vector_field": {"components": ["1", "0"]},
        "chart": {"forward": ["x1", "x2+x1^2/2"],
                  "inverse": ["x1", "x2-x1^2/2"]},
        "sampling": {"mode": "grid", "count": 1, "y_per_x": 1},
    }
    untraced = checks.run_scenario(config)
    before = _finsym_attributes()
    with tracing.Tracer() as tracer:
        traced = checks.run_scenario(config)  # the wrapped function
    after = _finsym_attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items()
            if after[key] is not value] == []
    assert [(r.check, r.point, r.residual) for r in traced] == [
        (r.check, r.point, r.residual) for r in untraced]
    calls = tracer.layer_metrics()
    assert calls["fedosov.transform_connection.calls"][0] > 0
    assert calls["checks.run_scenario.calls"][0] == 1
