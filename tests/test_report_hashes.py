"""The shipped configs' json-lines reports, pinned byte for byte.

A refactor of the check runner or the connection pipeline must leave these
hashes unchanged; only a deliberate change of the numerics may re-pin them
(and say so).  Measured with numpy 2.4.6.  curved_volume, polar_riemannian
and randers_dbeta were re-pinned when the connection assembly moved to
array-form forward mode: residuals moved in the last bits (at most 2.7e-13),
every record kept its check, point, verdict, error and tolerance.
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
        "1fd972bee6825544880724439dacb0a2bb7821a23149f58d64a79b8785e89a6f",
    "euclidean_standard":
        "336ce98854e16ee2b4bf219f4405572d6547301eec81705eea4938d0b906e99a",
    "polar_riemannian":
        "71692a738befa0c6e44ccd211b94329982410a9de13f038c508df515d1d6c7fb",
    "quartic_minkowski_chart":
        "4f7eed38eb763a24a93df4a39c9987e733a3e0588d322c2daf15acb86db70760",
    "randers_dbeta":
        "1eb5b2fc5e4e609870e53bb6c2ef783001ae3817c9555349c70a8b4ea0f821fd",
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
