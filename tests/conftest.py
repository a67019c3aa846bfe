"""Shared metrics, scenarios, and sampling helpers for the test suite."""

import sys

import numpy as np
import pytest

from finsym.fields import DomainBox, ScalarFieldSpec, VectorFieldSpec
from finsym.finsler import MetricSpec
from finsym.jets import fd_oracle, fd_stencil
from finsym.fedosov import FedosovScenario
from finsym.symplectic import ExactTwoForm, explicit_two_form, standard_form

XY2 = ("x1", "x2")
XY4 = ("x1", "x2", "x3", "x4")

BOX2 = DomainBox((-1.0, -1.0), (1.0, 1.0))
BOX4 = DomainBox((-1.0,) * 4, (1.0,) * 4)
POLAR_BOX = DomainBox((1.0, 0.1), (3.0, 1.5))


def patch_everywhere(monkeypatch, original, replacement):
    """Rebind ``original`` to ``replacement`` in every finsym module that
    imported it, so no call site can reach the original."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "finsym" or name.startswith("finsym.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def partial(jet, idx):
    """The partial derivative of a one-point jet for a multi-index, read
    from ``jet.derivatives``."""
    slots = tuple(v for v, e in enumerate(idx) for _ in range(e))
    return jet.derivatives(len(slots))[(0,) + slots]


def fd_estimate(field, x, idx):
    """:func:`fd_oracle` for a scalar field at x, from the field's values on
    the stencil, evaluated as one stack."""
    return fd_oracle(field.evaluate(np.array(fd_stencil(x, idx))), x, idx)


def sample_box(rng, lower, upper, count):
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    return lo + (hi - lo) * rng.random((count, lo.size))


def xy_samples(rng, box, count, y_range=(0.35, 1.6)):
    """(x, y) pairs with x in the box and y off the axes and away from 0."""
    dim = len(box.lower)
    xs = sample_box(rng, box.lower, box.upper, count)
    ys = sample_box(rng, (y_range[0],) * dim, (y_range[1],) * dim, count)
    return list(zip(xs, ys))


def randers_metric(n):
    """A Randers metric on [-1, 1]^n with x-dependent alpha and b."""
    alpha = [[f"1+0.2*x{i + 1}^2" if i == j else
              f"{0.03 * abs(i - j):.2f}*x{min(i, j) + 1}*x{max(i, j) + 1}"
              for j in range(n)] for i in range(n)]
    b = [f"{0.1 * (-1) ** i:.1f}*x{(i + 1) % n + 1}" for i in range(n)]
    box = DomainBox((-1.0,) * n, (1.0,) * n)
    return MetricSpec.randers(alpha, b, box)


@pytest.fixture(scope="session")
def euclid2():
    return MetricSpec.custom("sqrt(y1^2+y2^2)", 2, BOX2)


@pytest.fixture(scope="session")
def polar():
    # flat plane in polar coordinates: x1 = r, x2 = angle
    return MetricSpec.riemannian([["1", "0"], ["0", "x1^2"]], POLAR_BOX)


@pytest.fixture(scope="session")
def quartic2():
    return MetricSpec.custom("(y1^4+y2^4)^0.25", 2, BOX2)


@pytest.fixture(scope="session")
def randers01():
    return MetricSpec.randers([["1", "0"], ["0", "1"]],
                              ["-0.1*x2", "0.1*x1"], BOX2)


@pytest.fixture(scope="session")
def graph2():
    # induced metric of the graph of (x1^2+x2^2)/2: curved, det = 1+x1^2+x2^2
    return MetricSpec.riemannian(
        [["1+x1^2", "x1*x2"], ["x1*x2", "1+x2^2"]], BOX2)


@pytest.fixture(scope="session")
def euclid4():
    return MetricSpec.custom("sqrt(y1^2+y2^2+y3^2+y4^2)", 4, BOX4)


@pytest.fixture(scope="session")
def quartic4():
    return MetricSpec.custom("(y1^4+y2^4+y3^4+y4^4)^0.25", 4, BOX4)


@pytest.fixture(scope="session")
def product4():
    # block product of two curved graph metrics
    g = [["1+x1^2", "x1*x2", "0", "0"],
         ["x1*x2", "1+x2^2", "0", "0"],
         ["0", "0", "1+x3^2", "x3*x4"],
         ["0", "0", "x3*x4", "1+x4^2"]]
    return MetricSpec.riemannian(g, BOX4)


def const_vector(dim, values):
    names = tuple(f"x{i + 1}" for i in range(dim))
    return VectorFieldSpec(tuple(
        ScalarFieldSpec.parse(str(v), names) for v in values))


@pytest.fixture(scope="session")
def w2_const():
    return const_vector(2, (1, 0))


@pytest.fixture(scope="session")
def w2_offaxis():
    # quartic-norm fundamental tensors degenerate on the fiber axes
    return const_vector(2, (1, 0.5))


@pytest.fixture(scope="session")
def w2_varying():
    return VectorFieldSpec((ScalarFieldSpec.parse("1+x1^2", XY2),
                            ScalarFieldSpec.parse("x2", XY2)))


@pytest.fixture(scope="session")
def w4_const():
    return const_vector(4, (1, 0, 0, 0))


@pytest.fixture(scope="session")
def volume_form2():
    return explicit_two_form(2, {(0, 1): "sqrt(1+x1^2+x2^2)"})


@pytest.fixture(scope="session")
def volume_form4():
    return explicit_two_form(4, {(0, 1): "sqrt(1+x1^2+x2^2)",
                                 (2, 3): "sqrt(1+x3^2+x4^2)"})


@pytest.fixture(scope="session")
def dbeta01(randers01):
    return ExactTwoForm(randers01.b_fields)


@pytest.fixture(scope="session")
def graph_scenario(graph2, w2_varying, volume_form2):
    """Curved metric whose connection preserves its volume form: the
    non-trivial preserving scenario."""
    return FedosovScenario(graph2, w2_varying, volume_form2)


@pytest.fixture(scope="session")
def product_scenario(product4, w4_const, volume_form4):
    return FedosovScenario(product4, w4_const, volume_form4)


@pytest.fixture(scope="session")
def euclid_std_scenario(euclid2, w2_varying):
    return FedosovScenario(euclid2, w2_varying, standard_form(1))


@pytest.fixture(scope="session")
def quartic_std_scenario(quartic2, w2_offaxis):
    return FedosovScenario(quartic2, w2_offaxis, standard_form(1))


@pytest.fixture(scope="session")
def polar_scenario(polar, w2_const):
    return FedosovScenario(polar, w2_const, standard_form(1))


@pytest.fixture(scope="session")
def randers_std_scenario(randers01, w2_const):
    # negative control: connection does not preserve the standard form
    return FedosovScenario(randers01, w2_const, standard_form(1))


@pytest.fixture(scope="session")
def randers_dbeta_scenario(randers01, w2_const, dbeta01):
    return FedosovScenario(randers01, w2_const, dbeta01)
