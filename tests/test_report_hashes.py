"""The shipped configs' json-lines reports, pinned byte for byte.

A refactor of the check runner or the connection pipeline must leave these
hashes unchanged; only a deliberate change of the numerics may re-pin them
(and say so).  Measured with numpy 2.4.6.
"""

import hashlib
import json
import os

import pytest

from finsym.checks import run_scenario
from finsym.report import emit_report

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")

REPORT_SHA256 = {
    "curved_volume":
        "c3815d5e6da87812a4d457f40736718013108d45eda349a98f9846edc3fb6eab",
    "euclidean_standard":
        "336ce98854e16ee2b4bf219f4405572d6547301eec81705eea4938d0b906e99a",
    "polar_riemannian":
        "27cc5c668f5c7e3cd6fa605281e957d95b0090522cd1470dd4131e0c62092e3e",
    "quartic_minkowski_chart":
        "4f7eed38eb763a24a93df4a39c9987e733a3e0588d322c2daf15acb86db70760",
    "randers_dbeta":
        "8bdc5414fb5f3849b5eed50e5f4fc86acd1d058dcac586662b5e50cda4423532",
}


def test_every_shipped_config_is_pinned():
    shipped = sorted(f[:-5] for f in os.listdir(CONFIG_DIR)
                     if f.endswith(".json"))
    assert shipped == sorted(REPORT_SHA256)


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_shipped_report_is_byte_identical(name):
    with open(os.path.join(CONFIG_DIR, f"{name}.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    payload = emit_report(run_scenario(config))
    assert hashlib.sha256(payload).hexdigest() == REPORT_SHA256[name]
