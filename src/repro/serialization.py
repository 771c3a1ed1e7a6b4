"""JSON (de)serialization of plans, fault plans and results.

The assigner runs offline, once per (model, cluster); production runtimes
load the resulting plan at startup, and the fleet planner cache reads
planner results back on every replay.  Everything persisted is a frozen
dataclass, so one generic codec covers all of it:

* :func:`to_dict` walks ``dataclasses.fields`` and writes a JSON-safe dict.
  Floats are written at full precision, so
  ``from_dict(cls, to_dict(x)) == x`` field for field.  An ``Optional``
  field holding ``None`` (its default) is omitted; a loader seeing the key
  missing restores the default.
* :func:`from_dict` rebuilds the dataclass from the type hints.  A missing
  key falls back to the field default; anything malformed (a missing
  required key, a wrong JSON type, a ``null`` where no ``None`` is allowed,
  a bool or non-integral number in an int field) raises ``ValueError``
  naming the class and field.
* :data:`_HEADERS` is the only per-type knowledge: which classes carry a
  ``kind`` tag and a ``schema_version``.

Golden regression fixtures (``tests/data/``) are the one exception to
full precision: :func:`dumps_degraded_result` rounds every float to 12
significant digits, enough to be bit-stable across platforms for the
pure-arithmetic roofline timing.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import types
import typing
from functools import lru_cache
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Tuple,
    Type,
    TypeVar,
    Union,
)

import numpy as np

from .plan import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .pipeline.simulator import DegradedSimResult

T = TypeVar("T")

SCHEMA_VERSION = 1

#: Class name -> (``kind`` tag or ``None``, carries ``schema_version``).
_HEADERS: Dict[str, Tuple[Any, bool]] = {
    "ExecutionPlan": (None, True),
    "FaultPlan": (None, True),
    "PipelineSimResult": ("pipeline_sim", False),
    "DegradedSimResult": ("degraded_sim", True),
    "PlannerResult": ("planner", True),
    "GenerationResult": ("generation", True),
    "FleetSimResult": ("fleet_sim", True),
    "OnlineSimResult": ("online_sim", True),
    "OnlineFleetResult": ("online_fleet", True),
}

_Enc = Callable[[Any], Any]
_Dec = Callable[[Any, str], Any]


def _fail(where: str, expected: str, value: Any) -> ValueError:
    return ValueError(f"{where}: expected {expected}, got {value!r}")


def _dec_int(v: Any, where: str) -> int:
    if type(v) is int:
        return v
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise _fail(where, "an integer", v)


def _dec_float(v: Any, where: str) -> float:
    if type(v) is float:
        return v
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        return float(v)
    raise _fail(where, "a number", v)


def _dec_str(v: Any, where: str) -> str:
    if isinstance(v, str):
        return v
    raise _fail(where, "a string", v)


def _dec_array(v: Any, where: str) -> np.ndarray:
    try:
        arr = np.asarray(v) if isinstance(v, list) else None
    except ValueError:  # ragged
        arr = None
    if arr is None or (arr.size and arr.dtype.kind not in "iu"):
        raise _fail(where, "a nested list of integers", v)
    return arr.astype(np.int64)


def _seq(v: Any, where: str) -> Any:
    if isinstance(v, (list, tuple)):
        return v
    raise _fail(where, "a list", v)


@lru_cache(maxsize=None)
def _codec(tp: Any) -> Tuple[_Enc, _Dec]:
    """(encoder, decoder) for one type hint."""
    if dataclasses.is_dataclass(tp):
        return to_dict, lambda v, where: _from_dict(tp, v, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (Union, types.UnionType):  # Optional[X]: one non-None arm
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec = _codec(inner)
        return (
            lambda v: None if v is None else enc(v),
            lambda v, where: None if v is None else dec(v, where),
        )
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        enc, dec = _codec(args[0])
        return (
            lambda v: [enc(x) for x in v],
            lambda v, where: tuple(dec(x, where) for x in _seq(v, where)),
        )
    if origin is tuple:
        codecs = [_codec(a) for a in args]

        def dec_fixed(v: Any, where: str) -> tuple:
            if len(_seq(v, where)) != len(codecs):
                raise _fail(where, f"a list of {len(codecs)} items", v)
            return tuple(d(x, where) for (_, d), x in zip(codecs, v))

        return (
            lambda v: [e(x) for (e, _), x in zip(codecs, v)],
            dec_fixed,
        )
    if origin is dict:
        (enc_k, dec_k), (enc_v, dec_v) = _codec(args[0]), _codec(args[1])

        def dec_dict(v: Any, where: str) -> dict:
            if not isinstance(v, dict):
                raise _fail(where, "an object", v)
            return {dec_k(k, where): dec_v(x, where) for k, x in v.items()}

        return (
            lambda v: {enc_k(k): enc_v(x) for k, x in v.items()},
            dec_dict,
        )
    if tp is np.ndarray:
        return (lambda v: v.tolist()), _dec_array
    if tp is int:
        return int, _dec_int
    if tp is float:
        return float, _dec_float
    if tp is str:
        return str, _dec_str
    raise TypeError(f"no JSON codec for type {tp!r}")


@lru_cache(maxsize=None)
def _fields(cls: type) -> Tuple[Tuple[str, str, _Enc, _Dec, bool, bool], ...]:
    """(name, error label, encoder, decoder, required, omit-when-None)
    per init field."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            f"{cls.__name__}.{f.name}",
            *_codec(hints[f.name]),
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING,
            f.default is None,
        )
        for f in dataclasses.fields(cls)
        if f.init
    )


def to_dict(obj: Any) -> Dict[str, Any]:
    """A JSON-safe dict of the dataclass ``obj`` (full-precision floats)."""
    cls = type(obj)
    out: Dict[str, Any] = {}
    kind, versioned = _HEADERS.get(cls.__name__, (None, False))
    if kind is not None:
        out["kind"] = kind
    if versioned:
        out["schema_version"] = SCHEMA_VERSION
    for name, _, enc, _, _, omit_none in _fields(cls):
        value = getattr(obj, name)
        if value is None and omit_none:
            continue
        out[name] = enc(value)
    return out


def from_dict(cls: Type[T], data: Any) -> T:
    """Rebuild a ``cls`` written by :func:`to_dict`.

    Raises ``ValueError`` naming the class and field on malformed input
    or an unsupported schema version.
    """
    return _from_dict(cls, data, cls.__name__)


def _from_dict(cls: Any, data: Any, where: str) -> Any:
    name = cls.__name__
    if not isinstance(data, dict):
        raise _fail(where, f"an object ({name})", data)
    kind, versioned = _HEADERS.get(name, (None, False))
    if versioned and data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported {name} schema version "
            f"{data.get('schema_version')!r} (expected {SCHEMA_VERSION})"
        )
    if kind is not None and data.get("kind", kind) != kind:
        raise _fail(f"{name}.kind", repr(kind), data["kind"])
    kwargs = {}
    # Absent optional keys are left out so the constructor applies the
    # field defaults.
    for field_name, label, _, dec, required, _ in _fields(cls):
        if field_name in data:
            kwargs[field_name] = dec(data[field_name], label)
        elif required:
            raise ValueError(f"{label}: missing")
    return cls(**kwargs)


def dumps(obj: Any, indent: int = 2) -> str:
    """Serialize a dataclass to canonical JSON (sorted keys)."""
    return json.dumps(to_dict(obj), indent=indent, sort_keys=True)


def loads(cls: Type[T], text: str) -> T:
    """Parse a ``cls`` written by :func:`dumps`."""
    return from_dict(cls, json.loads(text))


def dumps_plan(plan: ExecutionPlan, indent: int = 2) -> str:
    """Serialize a plan to a JSON string."""
    return dumps(plan, indent=indent)


def loads_plan(text: str) -> ExecutionPlan:
    """Parse a plan from a JSON string."""
    return loads(ExecutionPlan, text)


def save_plan(plan: ExecutionPlan, path: Union[str, Path]) -> None:
    """Write a plan to ``path`` as JSON."""
    Path(path).write_text(dumps_plan(plan) + "\n")


def load_plan(path: Union[str, Path]) -> ExecutionPlan:
    """Read a plan written by :func:`save_plan`."""
    return loads_plan(Path(path).read_text())


def _round_floats(value: Any) -> Any:
    """Every float in a JSON tree rounded to 12 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    return value


def dumps_degraded_result(res: "DegradedSimResult", indent: int = 2) -> str:
    """Canonical golden-fixture text of a degraded simulation: floats
    rounded to 12 significant digits, sorted keys, trailing newline."""
    return (
        json.dumps(_round_floats(to_dict(res)), indent=indent, sort_keys=True)
        + "\n"
    )
