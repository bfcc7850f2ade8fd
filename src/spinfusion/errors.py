"""Exception types shared across the package, the JSON shape and number
checks of its file readers, and the integer check of its label arrays."""

import json
import numbers

import numpy as np


class SpinFusionError(Exception):
    """Base class for all package-specific errors."""


class InadmissibleTriple(SpinFusionError):
    """Spin triple violates the triangle or integrality (parity) rule."""


class SpinMismatch(SpinFusionError):
    """An irrep vector's spin does not match what an operation expects."""


class ChannelMismatch(SpinFusionError):
    """Channel counts of operands disagree."""


class EmptyDiagramSet(SpinFusionError):
    """A fusion block was configured with no diagrams."""


class ZeroVector(SpinFusionError):
    """A direction was requested for a (near-)zero 3-vector."""


class NonScalarSeed(SpinFusionError):
    """Backward pass was seeded with a node that is not a real scalar."""


class EmptySchedule(SpinFusionError):
    """A spin schedule contains no internal spins."""


class RejectionFailure(SpinFusionError):
    """Rejection sampling failed to place atoms within the retry budget."""


class ShapeMismatch(SpinFusionError, ValueError):
    """Array shapes disagree where they must match."""


class NonFiniteLoss(SpinFusionError):
    """Training produced a NaN or infinite loss."""


class RecouplingError(SpinFusionError):
    """A recoupling matrix does not reproduce the diagrams it re-associates."""


def check_json(value, expected: type, what: str):
    """``value`` if it parsed from JSON as ``expected`` (dict: an object,
    list: an array), else ValueError naming ``what``."""
    if not isinstance(value, expected):
        kind = "object" if expected is dict else "array"
        raise ValueError(f"{what} must be a JSON {kind}, got {json.dumps(value)[:40]}")
    return value


def json_field(payload: dict, key: str, what: str):
    """``payload[key]``, else ValueError naming the missing field: a bare
    index would fail with the KeyError text alone."""
    if key not in payload:
        raise ValueError(f"{what} has no {key!r} field")
    return payload[key]


def check_json_number(value, what: str, integer: bool = False):
    """``value`` if it parsed from JSON as a number, else ValueError naming
    ``what``.  An integer field (``integer``) takes a JSON integer only, a
    real one an integer or a float; neither takes a bool, string or null."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        expected = "integer" if integer else "number"
        shown = json.dumps(value, default=repr)[:40]
        raise ValueError(f"{what} must be a JSON {expected}, got {shown}")
    return value


def check_integers(values, what: str) -> np.ndarray:
    """``values`` as an int array if every entry is an integer (an
    integer-valued float included), else ValueError naming ``what``: a bare
    cast would truncate 1.9 to 1 without a word."""
    array = np.asarray(values)
    if array.dtype.kind in "iu" or (
        array.dtype.kind == "f" and np.all((np.abs(array) < 2.0**63) & (array == np.trunc(array)))
    ):
        return array.astype(int)
    raise ValueError(f"{what} must be integers, got {array.ravel()[:6].tolist()}")
