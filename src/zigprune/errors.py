"""Exception types raised across the toolkit, the one reader of every JSON
file from outside the program and the one writer of every JSON file the
program writes, and the one check of every document read: each value
against its annotation."""

import functools
import json
import sys
import typing
from typing import Annotated

import numpy as np


class ZigpruneError(Exception):
    """Base class for all toolkit errors."""


class GraphError(ZigpruneError):
    """Base class for graph construction / validation failures."""


class CycleDetected(GraphError):
    pass


class DanglingEdge(GraphError):
    pass


class UnknownKindString(GraphError):
    pass


class ShapeMismatch(GraphError):
    """Runtime tensor does not match the declared interface."""


class ShapeMismatchAtSDJoint(GraphError):
    """A shape-dependent joint received inputs of differing shapes."""


class FlattenWithoutKnownSpatialDims(GraphError):
    pass


class PartitionError(ZigpruneError):
    """Group partition hit an unsupported or inconsistent topology."""


class InconsistentStemWidths(PartitionError):
    pass


class KExceedsGroupCount(ZigpruneError):
    pass


class CompressionError(ZigpruneError):
    pass


class AllGroupsZeroInComponent(CompressionError):
    pass


class ShapeMismatchAfterPrune(CompressionError):
    pass


class ConfigError(ZigpruneError):
    pass


class TrainingDiverged(ZigpruneError):
    """The loss or the gradient went non-finite; ``step`` is the global
    optimizer step (0-based) whose forward/backward produced it."""

    def __init__(self, step: int, what: str):
        super().__init__(f"training diverged at step {step}: non-finite {what}")
        self.step = step


# An annotation's bound, as in Annotated[float, "[0, 1)"], is an interval,
# whose round bracket excludes its end, or a tuple of choices.
Size = Annotated[int, "[1, inf)"]
Count = Annotated[int, "[0, inf)"]
NonNegative = Annotated[float, "[0, inf)"]


@functools.cache
def field_types(obj) -> dict:
    """Name -> annotation, bounds kept, of a dataclass's fields or a
    function's parameters, resolved once per ``obj``: callers share it."""
    hints = typing.get_type_hints(obj, include_extras=True)
    hints.pop("return", None)
    return hints


def _admits(cls: type, annotation) -> bool:
    """Whether a value of class ``cls`` is of the type ``annotation`` names."""
    if annotation is int or annotation is float:
        return not issubclass(cls, bool) and (issubclass(cls, (int, np.integer)) or (
            annotation is float and issubclass(cls, (float, np.floating))))
    return issubclass(cls, annotation)


def check_value(value, annotation, where: str, error: type = ConfigError):
    """``value`` if its annotation admits it, else ``error`` naming ``where``.

    An int is a Python or numpy integer, not a bool; a float is an int or a
    Python or numpy float, and finite; another class admits its instances,
    so a bool is only a bool and a str only a str. ``Optional`` admits None,
    ``list[T]`` a list or tuple of Ts, ``tuple[A, B]`` one of an A and a B,
    ``np.ndarray`` nested lists of floats, and ``Annotated`` adds a bound.
    Nothing is converted, but an ndarray comes back as one float array and
    a numpy scalar as the equal Python one.
    """
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is Annotated:
        value, bound = check_value(value, args[0], where, error), args[1]
        if isinstance(bound, tuple):
            ok, bound = value in bound, f"one of {list(bound)}"
        else:
            low, high = (float(end) for end in bound[1:-1].split(","))
            ok = (low < value if bound[0] == "(" else low <= value) and \
                (value < high if bound[-1] == ")" else value <= high)
            bound = f"in {bound}"
        if not ok:
            raise error(f"{where} must be {bound}, got {value!r}")
        return value
    if origin is typing.Union:  # Optional[T]
        return None if value is None else check_value(value, args[0], where, error)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)) or origin is tuple and len(value) != len(args):
            size = f" of {len(args)} entries" if origin is tuple else ""
            raise error(f"{where} must be a list{size}, got {value!r}")
        items = args if origin is tuple else args * len(value)
        return type(value)(check_value(v, a, f"{where}[{i}]", error)
                           for i, (v, a) in enumerate(zip(value, items)))
    if annotation is np.ndarray:
        entries = np.asarray(value, dtype=object)
        for cls in set(map(type, entries.flat)):
            if not _admits(cls, float):
                raise error(f"{where} must hold numbers, got a {cls.__name__}")
        try:
            value = entries.astype(float)
        except OverflowError:  # an int beyond the float range
            raise error(f"{where} must hold finite numbers") from None
        if not np.isfinite(value).all():
            raise error(f"{where} must hold finite numbers")
        return value
    if not _admits(type(value), annotation):
        raise error(f"{where} must be of type {annotation.__name__}, got {value!r}")
    value = value.item() if isinstance(value, np.generic) else value
    if annotation is float and not abs(value) <= sys.float_info.max:
        raise error(f"{where} must be finite, got {value!r}")
    return value


def check_fields(doc, types, what: str, error: type = ConfigError, required=()) -> dict:
    """``doc`` with each value checked by ``check_value`` against ``types``:
    a name -> annotation dict, or a dataclass or function whose annotations
    ``field_types`` reads. ``error`` names a key ``types`` lacks, a missing
    ``required`` key, or the first value rejected, as ``what 'key'``."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be a dict, got {doc!r}")
    types = types if isinstance(types, dict) else field_types(types)
    unknown = set(doc) - set(types)
    if unknown:
        raise error(f"unknown {what} keys: {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise error(f"{what} {key!r} is required")
    return {key: check_value(value, types[key], f"{what} {key!r}", error)
            for key, value in doc.items()}


def read_json(path, what: str):
    """The JSON document in the file at ``path``; a ConfigError names
    ``what`` and the path when the file cannot be read or is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"cannot read {what} {str(path)!r}: {exc}") from None


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` as compact JSON in one write: ``json.dumps``
    encodes with CPython's C encoder, which ``json.dump`` and ``indent`` lose."""
    text = json.dumps(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
