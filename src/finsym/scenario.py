"""Scenario configuration: schema validation, object building, sampling.

A scenario is one JSON document describing a metric, an optional two-form,
vector field and chart, a sampling plan, and tolerance overrides.  Random
sampling uses numpy's PCG64 generator with the explicit seed from the
config, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from jsonschema import Draft202012Validator

from .errors import ConfigError, ParseError
from .fields import ChartMap, DomainBox, ScalarFieldSpec, VectorFieldSpec
from .finsler import MetricSpec
from .jets import fd_base_step
from .symplectic import ExactTwoForm, TwoForm, explicit_two_form, standard_form

DEFAULT_TOLERANCES = {
    "tol_pd": 1e-10,
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


def _json_pointer(path) -> str:
    return "/" + "/".join(str(p) for p in path)


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
    two_form_kind: str | None = None
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
    y_min = float(block.get("y_min", 1e-6))
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
                    metric: MetricSpec) -> tuple[TwoForm, str]:
    kind = block["kind"]
    if kind == "standard":
        if dimension % 2 != 0:
            raise ConfigError(
                f"standard two-form needs an even dimension, got {dimension}",
                "/dimension")
        return standard_form(dimension // 2), kind
    if kind == "randers-dbeta":
        if metric.family != "randers":
            raise ConfigError(
                "randers-dbeta two-form requires a randers metric",
                "/two_form/kind")
        return ExactTwoForm(metric.b_fields), kind
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
    return explicit_two_form(dimension, parsed), kind


_BERWALD_BASE = (
    (1.0, 0.6, 1.1, 0.7),
    (0.5, 1.3, 0.8, 1.2),
    (2.0, 3.0, 2.5, 3.5),
)


def default_berwald_vectors(dimension: int) -> tuple:
    return tuple(np.array(v[:dimension]) for v in _BERWALD_BASE)


def validate_config(config: dict) -> None:
    """Schema plus cross-field validation; raises ConfigError."""
    validator = Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        raise ConfigError(e.message, _json_pointer(e.absolute_path))
    sampling = config["sampling"]
    if sampling["mode"] == "random" and "seed" not in sampling:
        raise ConfigError("random sampling requires an explicit seed",
                          "/sampling/seed")
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
    if box.excluded:
        for row, coords in enumerate(ps.tolist()):
            step = _FD_STEP * max(1.0, *map(abs, coords))
            clear[row] = clear[row] and all(
                math.hypot(*(a - c for a, c in zip(coords, center)))
                >= radius + step for center, radius in box.excluded)
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
    ConfigError where that row lies past ``1000 * count`` rows."""
    keep = keep or box.contains_rows
    lo, hi = _inset(box)
    budget, out = 1000 * count, []
    # the rows drawn after the last run's last point, and which are admitted
    ps, admitted = np.empty((0, box.dimension)), np.empty(0, dtype=bool)
    while len(out) < runs:
        hits = np.flatnonzero(admitted[:budget])[:count]
        if len(hits) == count:
            out.append(ps[hits])
            ps, admitted = ps[hits[-1] + 1:], admitted[hits[-1] + 1:]
        elif len(admitted) >= budget:
            raise ConfigError(
                "sampling box rejects nearly all points", "/sampling")
        else:
            new = lo + (hi - lo) * rng.random((min(
                count * (runs - len(out)) - len(hits),
                budget - len(admitted)), box.dimension))
            norms = np.array([math.hypot(*row) for row in new.tolist()])
            ps = np.concatenate([ps, new])
            admitted = np.concatenate([admitted,
                                       keep(new) & (norms >= min_norm)])
    return np.array(out)


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
        y_fixed = np.array([y for y in y_fixed
                            if math.hypot(*y) >= metric.y_min])
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
    kind = None
    if "two_form" in config:
        two_form, kind = _build_two_form(config["two_form"], dimension, metric)

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
            w_min=float(block.get("w_min", 1e-6)))

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
        two_form=two_form, two_form_kind=kind, vector_field=vector_field,
        chart=chart, berwald_vectors=berwald_vectors,
    )


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, bad UTF-8, huge integers
        raise ConfigError(f"invalid JSON: {exc}", "") from exc
    except RecursionError:
        raise ConfigError("invalid JSON: nested too deeply", "") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", "") from exc
