"""The shipped configs' json-lines reports, pinned byte for byte.

A refactor of the check runner or the connection pipeline must leave these
hashes unchanged; only a deliberate change of the numerics may re-pin them
(and say so).  Measured with numpy 2.4.6.  curved_volume, polar_riemannian
and randers_dbeta were re-pinned when the connection assembly moved to
array-form forward mode: residuals moved in the last bits (at most 2.7e-13),
every record kept its check, point, verdict, error and tolerance.
The two randomly sampled configs are pinned at two more seeds as well, so
a change that only shows at other sample points is caught too.  Two
generated Randers configs in ``tests/data`` pin the n = 3 and n = 4 paths:
a 4-d scenario under the full suite and a 3-d one under ``structural``.
Five small ``errors-*`` configs pin reports full of error records, so the
type, text and precedence of each error stays fixed, at every block size.
"""

import gc
import hashlib
import json
import os

import pytest

from finsym import checks, finsler
from finsym.checks import run_scenario
from finsym.report import emit_report
from finsym.scenario import build_scenario

from conftest import patch_everywhere

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

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


# (config, seed) -> sha256 of the report with the config's seed replaced
RESEEDED_REPORT_SHA256 = {
    ("curved_volume", 1):
        "ae8c32c2e4bcb49b07a884205461e98a6b898db44a9cdca7c049057c4f639a48",
    ("curved_volume", 2):
        "1493115d8068e9848a5f33d286ed2517a9c7fcdf475628db9bd0dd556b5e7a80",
    ("randers_dbeta", 1):
        "060902920a4f81ecd31f76670a85822d40828757457f3c2380778212478bcb1f",
    ("randers_dbeta", 2):
        "ea60b382118ccc763a676a608c2e080e9ac18cabda15f0bdca4feefcd2ac72f0",
}


# (data config, suite) -> sha256 of its report; None runs the full suite
DATA_REPORT_SHA256 = {
    ("curvature-n4-v3", None):
        "79c8f03ad5418a6842594c9f5008e455ab9b9e4b69db7162a3fa0f050bda5980",
    ("structural-n3-v3", "structural"):
        "19f0c54b3b36e742d93a721ae8a8a88115d453414c8dc8a979131a236722dbde",
    ("errors-berwald-floor", None):
        "5bc3c7bbfa7aee5d9978365cbc9595f5bd2b898854457490c1989a6b34982944",
    ("errors-narrow-box", None):
        "30dd9a5374ad15e975baa2a1e2a0ce4f6088f530fd42e4947234cbea0db16848",
    ("errors-not-minkowskian", None):
        "d559d382b88bc41d0d6be8ec28b12e5269603814a10480faa727a64dcc658a84",
    ("errors-tol-pd", None):
        "29c70c441e23581d564889f58ccadc07cfdaf9a5fa536cd80e0cbbf603cb344c",
    ("errors-w-vanishing", None):
        "7c04e77136581fa761f4fce595b0418d535fb836ad328c2ba520d2a9d5c6c599",
}

# the configs above whose reports carry error records: W vanishing at a base
# point, a Berwald probe below the floor, a curved metric under minkowski,
# pairs failing tol_pd, and FD stencils that all leave a narrow box
ERROR_CONFIGS = sorted(name for name, _ in DATA_REPORT_SHA256
                       if name.startswith("errors-"))


def _load(name: str, directory: str = CONFIG_DIR) -> dict:
    with open(os.path.join(directory, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_every_shipped_config_is_pinned():
    shipped = sorted(f[:-5] for f in os.listdir(CONFIG_DIR)
                     if f.endswith(".json"))
    assert shipped == sorted(REPORT_SHA256)


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_shipped_report_is_byte_identical(name):
    payload = emit_report(run_scenario(_load(name)))
    assert hashlib.sha256(payload).hexdigest() == REPORT_SHA256[name]


def test_reseeded_configs_are_the_random_ones():
    random = sorted(name for name in REPORT_SHA256
                    if _load(name)["sampling"]["mode"] == "random")
    assert sorted({name for name, _ in RESEEDED_REPORT_SHA256}) == random


@pytest.mark.parametrize("name,seed", sorted(RESEEDED_REPORT_SHA256))
def test_reseeded_report_is_byte_identical(name, seed):
    payload = emit_report(run_scenario(_load(name), seed_override=seed))
    assert (hashlib.sha256(payload).hexdigest()
            == RESEEDED_REPORT_SHA256[(name, seed)])


@pytest.mark.parametrize("name,suite", sorted(DATA_REPORT_SHA256,
                                              key=lambda k: k[0]))
def test_higher_dimension_report_is_byte_identical(name, suite):
    config = _load(name, DATA_DIR)
    payload = emit_report(run_scenario(
        config, suite=None if suite is None else [suite]))
    assert (hashlib.sha256(payload).hexdigest()
            == DATA_REPORT_SHA256[(name, suite)])


@pytest.mark.parametrize("block_pairs", [1, 7, None])
@pytest.mark.parametrize("name", ERROR_CONFIGS)
def test_error_report_is_the_same_at_every_block_size(name, block_pairs,
                                                      monkeypatch):
    if block_pairs is not None:
        monkeypatch.setattr(finsler, "_block_pairs",
                            lambda n, pairs=block_pairs: pairs)
    payload = emit_report(run_scenario(_load(name, DATA_DIR)))
    assert payload.count(b'"error":"') > 0
    assert (hashlib.sha256(payload).hexdigest()
            == DATA_REPORT_SHA256[(name, None)])


def test_a_failing_stencil_is_replayed_up_to_its_first_failing_point(
        monkeypatch):
    """The FD commutator raises the first failing stencil point's error, so
    a failing stencil block is replayed one point at a time up to that
    point.  On the narrow box every stencil point but the base point
    leaves the box: two one-row samples per base point (the base point and
    the first stencil point), not one per point of the 9-point block."""
    one_row = []
    block = finsler.sample_block

    def counted(m, xs, ys):
        if len(xs) == 1:
            one_row.append(tuple(xs[0]))
        return block(m, xs, ys)

    patch_everywhere(monkeypatch, block, counted)
    config = _load("errors-narrow-box", DATA_DIR)
    payload = emit_report(run_scenario(config))
    assert (hashlib.sha256(payload).hexdigest()
            == DATA_REPORT_SHA256[("errors-narrow-box", None)])
    assert 2 * len(build_scenario(config).plan.xs) == len(one_row) == 18


@pytest.mark.parametrize("name", ERROR_CONFIGS)
def test_error_run_leaves_no_reference_cycles(name):
    """A failed quantity is kept and raised again without the frames it
    was raised through, so a base point's context is freed by reference
    counting once its block is done, errors or not."""
    config = _load(name, DATA_DIR)
    gc.collect()
    gc.disable()
    try:
        run_scenario(config)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


# base points of each errors-* config (9 each) at which the FD commutator
# runs: those where the jet-path curvature it is compared with exists
FD_COMMUTATOR_CALLS = {
    "errors-berwald-floor": 9,
    "errors-narrow-box": 9,
    "errors-not-minkowskian": 9,
    "errors-tol-pd": 5,
    "errors-w-vanishing": 8,
}


@pytest.mark.parametrize("name", ERROR_CONFIGS)
def test_inputs_are_computed_only_where_a_record_needs_them(name,
                                                            monkeypatch):
    """A facet reads its inputs in order, each only where the earlier ones
    hold values, and a gated residual runs only where its gate lets the
    row through: the FD commutator runs where the chain-rule curvature
    exists, and the Darboux relations on one row per record they give a
    residual."""
    assert sorted(FD_COMMUTATOR_CALLS) == ERROR_CONFIGS
    fd, relations = set(), []
    commutators = checks.curvature_fd_commutators
    darboux = checks.darboux_relations_residual

    def counted_fd(sc, xs, *args):
        # a failing stack is computed again one base point at a time
        fd.update(map(tuple, xs))
        return commutators(sc, xs, *args)

    def counted_relations(G, n):
        relations.extend(G)  # one row per base point
        return darboux(G, n)

    monkeypatch.setattr(checks, "curvature_fd_commutators", counted_fd)
    monkeypatch.setattr(checks, "darboux_relations_residual",
                        counted_relations)
    records = run_scenario(_load(name, DATA_DIR))
    assert len(fd) == FD_COMMUTATOR_CALLS[name]
    assert len(relations) == sum(1 for r in records
                                 if r.check == "darboux:relations"
                                 and r.residual is not None)
