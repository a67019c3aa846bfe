"""Scenario configuration: schema validation, object building, sampling.

A scenario is one JSON document describing a metric, an optional two-form,
vector field and chart, a sampling plan, and tolerance overrides.
``CONFIG_SCHEMA`` states its format in the eleven JSON Schema 2020-12
keywords that ``_errors`` implements; a config's error is the one at the
smallest path.  Random sampling uses numpy's PCG64 generator with the
explicit seed from the config, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, replace
from functools import partial
from numbers import Number

import numpy as np

from .errors import ConfigError, ParseError
from .fields import (DEFAULT_W_MIN, ChartMap, DomainBox, ScalarFieldSpec,
                     VectorFieldSpec, norms_at_least)
from .finsler import DEFAULT_TOL_PD, DEFAULT_Y_MIN, MetricSpec
from .jets import fd_base_step
from .symplectic import ExactTwoForm, TwoForm, explicit_two_form, standard_form

DEFAULT_TOLERANCES = {
    "tol_pd": DEFAULT_TOL_PD,
    "tol_nd": 1e-8,
    "homogeneity": 1e-9,
    "structural-compat": 1e-7,
    "preservation": 1e-9,
    "preservation-gate": 1e-9,
    "randers-equivalence": 1e-9,
    "closedness": 1e-9,
    "exactness": 1e-12,
    "darboux": 1e-8,
    "transform": 1e-8,
    "minkowski": 1e-8,
    "berwald-uniqueness": 1e-10,
    "curvature-fd": 1e-5,
    "bianchi": 1e-7,
    "two-path": 1e-9,
    "pair-symmetry": 1e-6,
}

_BOX_SCHEMA = {
    "type": "object",
    "required": ["lower", "upper"],
    "additionalProperties": False,
    "properties": {
        "lower": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "upper": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "excluded": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["center", "radius"],
                "additionalProperties": False,
                "properties": {
                    "center": {"type": "array", "items": {"type": "number"}},
                    "radius": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
    },
}

_EXPR = {"type": "string", "minLength": 1}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["dimension", "metric", "sampling"],
    "additionalProperties": False,
    "properties": {
        "dimension": {"type": "integer", "minimum": 1, "maximum": 4},
        "metric": {
            "type": "object",
            "required": ["family", "domain"],
            "additionalProperties": False,
            "properties": {
                "family": {"enum": ["riemannian", "randers", "custom"]},
                "g": {"type": "array", "items": {"type": "array", "items": _EXPR}},
                "alpha": {"type": "array",
                          "items": {"type": "array", "items": _EXPR}},
                "b": {"type": "array", "items": _EXPR},
                "F": _EXPR,
                "domain": _BOX_SCHEMA,
                "y_min": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "two_form": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["standard", "randers-dbeta", "explicit"]},
                "entries": {"type": "object", "additionalProperties": _EXPR},
            },
        },
        "vector_field": {
            "type": "object",
            "required": ["components"],
            "additionalProperties": False,
            "properties": {
                "components": {"type": "array", "items": _EXPR, "minItems": 1},
                "w_min": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "chart": {
            "type": "object",
            "required": ["forward", "inverse"],
            "additionalProperties": False,
            "properties": {
                "forward": {"type": "array", "items": _EXPR, "minItems": 1},
                "inverse": {"type": "array", "items": _EXPR, "minItems": 1},
                "forward_domain": _BOX_SCHEMA,
                "inverse_domain": _BOX_SCHEMA,
            },
        },
        "sampling": {
            "type": "object",
            "required": ["mode", "count"],
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["grid", "random"]},
                "count": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "y_per_x": {"type": "integer", "minimum": 1},
                "y_box": _BOX_SCHEMA,
            },
        },
        "berwald_vectors": {
            "type": "array",
            "minItems": 2,
            "items": {"type": "array", "items": {"type": "number"}},
        },
        "tolerances": {"type": "object",
                       "additionalProperties": {"type": "number"}},
    },
}


# JSON Schema 2020-12 types: a bool is not a number, a whole float is an
# integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}
# The keywords a schema may use, each with the type of value it reads
# (None: any), and how a value fails each bound and the words that say so.
_KEYWORDS = {
    "type": None, "enum": None, "required": "object", "properties": "object",
    "additionalProperties": "object", "items": "array", "minItems": "array",
    "minLength": "string", "minimum": "number", "maximum": "number",
    "exclusiveMinimum": "number",
}
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
}


def _errors(schema, v, path=()):
    """(path, message) of each way ``v`` breaks ``schema``, keyword by
    keyword in the schema's order."""
    for key, arg in schema.items():
        kind = _KEYWORDS[key]
        if kind is not None and not _TYPES[kind](v):
            continue
        if key == "type" and not _TYPES[arg](v):
            yield path, f"{v!r} is not of type {arg!r}"
        elif key == "enum" and v not in arg:
            yield path, f"{v!r} is not one of {arg!r}"
        elif key == "required":
            for name in arg:
                if name not in v:
                    yield path, f"{name!r} is a required property"
        elif key == "properties":
            for name, sub in arg.items():
                if name in v:
                    yield from _errors(sub, v[name], path + (name,))
        elif key == "additionalProperties":
            extras = sorted(set(v) - set(schema.get("properties", ())))
            if isinstance(arg, dict):
                for name in extras:
                    yield from _errors(arg, v[name], path + (name,))
            elif extras and not arg:
                verb = "was" if len(extras) == 1 else "were"
                yield path, ("Additional properties are not allowed ("
                             f"{', '.join(map(repr, extras))} {verb} "
                             "unexpected)")
        elif key == "items":
            for i, item in enumerate(v):
                yield from _errors(arg, item, path + (i,))
        elif key in ("minItems", "minLength") and len(v) < arg:
            yield path, f"{v!r} " + (
                "should be non-empty" if arg == 1 else "is too short")
        elif key in _BOUNDS and _BOUNDS[key][0](v, arg):
            yield path, f"{v!r} is {_BOUNDS[key][1]} {arg!r}"


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic base and fiber sample points: xs[m, n], ys[m, k, n]."""

    xs: np.ndarray
    ys: np.ndarray


@dataclass(frozen=True, eq=False)
class BuiltScenario:
    """All objects a check needs, constructed from one validated config."""

    dimension: int
    metric: MetricSpec
    plan: SamplePlan
    tolerances: dict
    two_form: TwoForm | None = None
    vector_field: VectorFieldSpec | None = None
    chart: ChartMap | None = None
    berwald_vectors: tuple = ()


def _build_box(block: dict, dimension: int, path: str) -> DomainBox:
    lower = tuple(float(v) for v in block["lower"])
    upper = tuple(float(v) for v in block["upper"])
    if len(lower) != dimension or len(upper) != dimension:
        raise ConfigError(
            f"box bounds must have {dimension} entries", f"{path}/lower")
    if any(lo >= hi for lo, hi in zip(lower, upper)):
        raise ConfigError("box has empty interior", f"{path}/upper")
    if not all(math.isfinite(hi - lo) for lo, hi in zip(lower, upper)):
        raise ConfigError("box width overflows", f"{path}/upper")
    excluded = tuple(
        (tuple(float(c) for c in ball["center"]), float(ball["radius"]))
        for ball in block.get("excluded", ())
    )
    for b, (center, _) in enumerate(excluded):
        if len(center) != dimension:
            raise ConfigError(
                f"excluded-ball center must have {dimension} entries",
                f"{path}/excluded/{b}/center")
    return DomainBox(lower, upper, excluded)


def _parse_expr(text: str, variables, path: str) -> ScalarFieldSpec:
    try:
        return ScalarFieldSpec.parse(text, variables)
    except ParseError as exc:
        raise ConfigError(f"bad expression {text!r}: {exc}", path) from exc


def _parse_exprs(texts, variables, path: str) -> tuple:
    return tuple(_parse_expr(text, variables, f"{path}/{i}")
                 for i, text in enumerate(texts))


def _build_metric(block: dict, dimension: int) -> MetricSpec:
    family = block["family"]
    domain = _build_box(block["domain"], dimension, "/metric/domain")
    y_min = float(block.get("y_min", DEFAULT_Y_MIN))
    xvars = tuple(f"x{i + 1}" for i in range(dimension))
    xyvars = xvars + tuple(f"y{i + 1}" for i in range(dimension))

    def matrix(key: str):
        rows = block.get(key)
        if rows is None:
            raise ConfigError(f"family {family!r} requires {key!r}",
                              f"/metric/{key}")
        if len(rows) != dimension or any(len(r) != dimension for r in rows):
            raise ConfigError(f"{key!r} must be a {dimension}x{dimension} matrix",
                              f"/metric/{key}")
        return [[_parse_expr(rows[i][j], xvars, f"/metric/{key}/{i}/{j}")
                 for j in range(dimension)] for i in range(dimension)]

    try:
        if family == "riemannian":
            return MetricSpec.riemannian(matrix("g"), domain, y_min)
        if family == "randers":
            b = block.get("b")
            if b is None or len(b) != dimension:
                raise ConfigError(
                    f"randers metric requires {dimension} covector components",
                    "/metric/b")
            return MetricSpec.randers(matrix("alpha"),
                                      _parse_exprs(b, xvars, "/metric/b"),
                                      domain, y_min)
        F = block.get("F")
        if F is None:
            raise ConfigError("custom metric requires 'F'", "/metric/F")
        return MetricSpec.custom(
            _parse_expr(F, xyvars, "/metric/F"), dimension, domain, y_min)
    except ValueError as exc:
        raise ConfigError(str(exc), "/metric") from exc


def _build_two_form(block: dict, dimension: int,
                    metric: MetricSpec) -> TwoForm:
    kind = block["kind"]
    if kind == "standard":
        if dimension % 2 != 0:
            raise ConfigError(
                f"standard two-form needs an even dimension, got {dimension}",
                "/dimension")
        return standard_form(dimension // 2)
    if kind == "randers-dbeta":
        if metric.family != "randers":
            raise ConfigError(
                "randers-dbeta two-form requires a randers metric",
                "/two_form/kind")
        return ExactTwoForm(metric.b_fields)
    entries = block.get("entries")
    if not entries:
        raise ConfigError("explicit two-form requires 'entries'",
                          "/two_form/entries")
    xvars = tuple(f"x{i + 1}" for i in range(dimension))
    parsed = {}
    for key, text in entries.items():
        parts = key.split(",")
        try:
            i, j = (int(p) for p in parts)
        except ValueError:
            i = j = -1
        if len(parts) != 2 or not (1 <= i < j <= dimension):
            raise ConfigError(
                f"entry key {key!r} must be 'i,j' with 1 <= i < j <= {dimension}",
                f"/two_form/entries/{key}")
        parsed[(i - 1, j - 1)] = _parse_expr(
            str(text), xvars, f"/two_form/entries/{key}")
    return explicit_two_form(dimension, parsed)


_BERWALD_BASE = (
    (1.0, 0.6, 1.1, 0.7),
    (0.5, 1.3, 0.8, 1.2),
    (2.0, 3.0, 2.5, 3.5),
)


def default_berwald_vectors(dimension: int) -> tuple:
    return tuple(np.array(v[:dimension]) for v in _BERWALD_BASE)


# The most (x, y) pairs a plan may hold: the samplers hold their grids and
# candidates in memory, and a check runs once per pair.
_MAX_PAIRS = 10_000


def validate_config(config: dict) -> None:
    """Schema plus cross-field validation; raises ConfigError."""
    errors = list(_errors(CONFIG_SCHEMA, config))
    if errors:
        path, message = min(errors, key=lambda e: e[0])
        raise ConfigError(message, "/" + "/".join(map(str, path)))
    sampling = config["sampling"]
    if sampling["mode"] == "random" and "seed" not in sampling:
        raise ConfigError("random sampling requires an explicit seed",
                          "/sampling/seed")
    if int(sampling["count"]) * int(sampling.get("y_per_x", 1)) > _MAX_PAIRS:
        raise ConfigError(f"count * y_per_x is above {_MAX_PAIRS} pairs",
                          "/sampling")
    for name, value in config.get("tolerances", {}).items():
        _check_tolerance(name, value)


def _check_tolerance(name: str, value: float) -> None:
    if name not in DEFAULT_TOLERANCES:
        raise ConfigError(f"unknown tolerance {name!r}", f"/tolerances/{name}")
    if not math.isfinite(value):
        raise ConfigError(f"tolerance {name!r} must be finite, got {value}",
                          f"/tolerances/{name}")


# Sample points stay this fraction of the box width away from its faces so
# finite-difference stencils around them remain admissible.
_EDGE_MARGIN = 0.025
# The FD commutator's largest step at unit scale, fd_oracle's coarse step for
# a first derivative.
_FD_STEP = fd_base_step(1)


def _stencil_clear(box: DomainBox, ps: np.ndarray) -> np.ndarray:
    """Whether each row p of a (P, n) stack is in the box and every FD
    stencil around it misses the excluded balls: p is at least the largest
    step, ``eps^(1/5) * max(1, |x_v|)``, beyond each ball's radius."""
    clear = box.contains_rows(ps)
    rows = np.flatnonzero(clear)
    if box.excluded and len(rows):
        inside = ps[rows]
        step = _FD_STEP * np.maximum(1.0, np.abs(inside).max(axis=1))
        for center, radius in box.excluded:
            clear[rows] &= norms_at_least(inside - center, radius + step)
    return clear


def _inset(box: DomainBox) -> tuple[np.ndarray, np.ndarray]:
    lo = np.asarray(box.lower)
    hi = np.asarray(box.upper)
    pad = _EDGE_MARGIN * (hi - lo)
    return lo + pad, hi - pad


def _grid_points(box: DomainBox, count: int, keep=None) -> np.ndarray:
    """Up to ``count`` points of a grid over the inset box that ``keep``
    (default: the box's own test), a test of each row of a stack,
    admits."""
    dim = box.dimension
    lo, hi = _inset(box)
    per_axis = max(1, math.ceil(count ** (1.0 / dim)))
    axes = [np.linspace(lo[i], hi[i], per_axis) if per_axis > 1
            else np.array([(lo[i] + hi[i]) / 2.0])
            for i in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    keep = keep or box.contains_rows
    return pts[keep(pts)][:count]


def _random_points(box: DomainBox, count: int, rng, min_norm: float = 0.0,
                   keep=None, runs: int = 1) -> np.ndarray:
    """``runs`` runs of ``count`` uniform points of the inset box that
    ``keep`` (default: the box's own test), a test of each row of a stack,
    admits, each of norm at least ``min_norm``: a (runs, count, n) array.

    Candidates are one stream of rows, drawn in rounds of as many as the
    runs still need; a run takes the rows after the last run's last point
    up to its ``count``-th admitted row, as if drawn one at a time.  A
    ConfigError where that row lies past ``1000 * count`` rows.  After
    each round, every whole run the admitted rows hold is cut at once."""
    keep = keep or box.contains_rows
    lo, hi = _inset(box)
    budget, out, done = 1000 * count, [], 0
    # the admitted rows drawn after the last run's last point, their
    # positions among the rows drawn since, and how many those are
    kept, at, drawn = np.empty((0, box.dimension)), np.empty(0, np.intp), 0
    while True:
        # each run ends at its count-th admitted row: no draw reaches past
        # the budget of the run it starts in, so every whole run is cut
        cut = min(len(at) // count, runs - done) * count
        if cut:
            out.append(kept[:cut].reshape(-1, count, box.dimension))
            start, done = at[cut - 1] + 1, done + cut // count
            kept, at, drawn = kept[cut:], at[cut:] - start, drawn - start
        if done == runs:
            return np.concatenate(out)
        if drawn >= budget:
            raise ConfigError(
                "sampling box rejects nearly all points", "/sampling")
        new = lo + (hi - lo) * rng.random((min(
            count * (runs - done) - len(at), budget - drawn), box.dimension))
        admitted = np.flatnonzero(keep(new) & norms_at_least(new, min_norm))
        kept = np.concatenate([kept, new[admitted]])
        at = np.concatenate([at, drawn + admitted])
        drawn += len(new)


_DEFAULT_Y_RANGE = (0.35, 1.6)


def build_plan(config: dict, metric: MetricSpec) -> SamplePlan:
    sampling = config["sampling"]
    dim = metric.dimension
    count = sampling["count"]
    y_per_x = sampling.get("y_per_x", 1)
    if "y_box" in sampling:
        y_box = _build_box(sampling["y_box"], dim, "/sampling/y_box")
    else:
        y_box = DomainBox((_DEFAULT_Y_RANGE[0],) * dim,
                          (_DEFAULT_Y_RANGE[1],) * dim)

    base_point = partial(_stencil_clear, metric.domain)
    if sampling["mode"] == "grid":
        xs = _grid_points(metric.domain, count, base_point)
        if xs.size == 0:
            raise ConfigError("grid produced no admissible base points",
                              "/sampling/count")
        y_fixed = _grid_points(y_box, y_per_x)
        y_fixed = y_fixed[norms_at_least(y_fixed, metric.y_min)]
        if y_fixed.size == 0:
            raise ConfigError("fiber grid produced no admissible points",
                              "/sampling/y_box")
        ys = np.broadcast_to(y_fixed[None, :, :],
                             (xs.shape[0],) + y_fixed.shape).copy()
        return SamplePlan(xs=xs, ys=ys)

    rng = np.random.default_rng(sampling["seed"])
    (xs,) = _random_points(metric.domain, count, rng, keep=base_point)
    ys = _random_points(y_box, y_per_x, rng, min_norm=metric.y_min,
                        runs=count)
    return SamplePlan(xs=xs, ys=ys)


@np.errstate(all="ignore")  # the policy of checks.run_checks
def build_scenario(config: dict, seed_override: int | None = None,
                   tolerance_overrides: dict | None = None) -> BuiltScenario:
    """Validate a config dict and construct all scenario objects.

    ``seed_override`` replaces the sampling seed before validation, so the
    schema checks it as it checks a seed in the config."""
    sampling = config.get("sampling") if isinstance(config, dict) else None
    if seed_override is not None and isinstance(sampling, dict):
        config = {**config, "sampling": {**sampling,
                                         "seed": int(seed_override)}}
    validate_config(config)
    # the schema takes a whole float such as 2.0 as an integer; these are
    # used as counts, indices and a seed
    sampling = dict(config["sampling"])
    for key in ("count", "seed", "y_per_x"):
        if key in sampling:
            sampling[key] = int(sampling[key])
    config = {**config, "dimension": int(config["dimension"]),
              "sampling": sampling}

    dimension = config["dimension"]
    tolerances = dict(DEFAULT_TOLERANCES)
    tolerances.update(config.get("tolerances", {}))
    if tolerance_overrides:
        for name, value in tolerance_overrides.items():
            _check_tolerance(name, float(value))
            tolerances[name] = float(value)

    metric = replace(_build_metric(config["metric"], dimension),
                     tol_pd=tolerances["tol_pd"])

    two_form = None
    if "two_form" in config:
        two_form = _build_two_form(config["two_form"], dimension, metric)

    xvars = tuple(f"x{i + 1}" for i in range(dimension))
    vector_field = None
    if "vector_field" in config:
        block = config["vector_field"]
        if len(block["components"]) != dimension:
            raise ConfigError(
                f"vector field must have {dimension} components",
                "/vector_field/components")
        vector_field = VectorFieldSpec(
            _parse_exprs(block["components"], xvars,
                         "/vector_field/components"),
            w_min=float(block.get("w_min", DEFAULT_W_MIN)))

    chart = None
    if "chart" in config:
        block = config["chart"]
        if len(block["forward"]) != dimension or len(block["inverse"]) != dimension:
            raise ConfigError(
                f"chart components must have {dimension} entries",
                "/chart/forward")
        chart = ChartMap(
            _parse_exprs(block["forward"], xvars, "/chart/forward"),
            _parse_exprs(block["inverse"], xvars, "/chart/inverse"),
            *(_build_box(block[key], dimension, f"/chart/{key}")
              if key in block else None
              for key in ("forward_domain", "inverse_domain")))

    if "berwald_vectors" in config:
        vecs = tuple(np.asarray(v, dtype=float) for v in config["berwald_vectors"])
        for i, v in enumerate(vecs):
            if v.shape != (dimension,):
                raise ConfigError(
                    f"probe vector must have {dimension} entries",
                    f"/berwald_vectors/{i}")
        berwald_vectors = vecs
    else:
        berwald_vectors = default_berwald_vectors(dimension)

    plan = build_plan(config, metric)
    return BuiltScenario(
        dimension=dimension, metric=metric, plan=plan, tolerances=tolerances,
        two_form=two_form, vector_field=vector_field,
        chart=chart, berwald_vectors=berwald_vectors,
    )


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError, NaN, bad UTF-8, huge ints
        raise ConfigError(f"invalid JSON: {exc}", "") from exc
    except RecursionError:
        raise ConfigError("invalid JSON: nested too deeply", "") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", "") from exc
