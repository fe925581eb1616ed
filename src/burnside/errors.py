"""Exception hierarchy shared by all modules, and the checks that turn
malformed JSON input into an ``InputError``."""

import json


class BurnsideError(Exception):
    """Base class for all errors raised by this package."""


class InputError(BurnsideError):
    """Malformed or inconsistent input data (bad JSON, shape mismatch, ...)."""


class SizeError(BurnsideError):
    """An enumeration exceeded its configured bound."""


class PreconditionError(BurnsideError):
    """An operation was called on arguments violating its stated precondition."""


class InvariantError(BurnsideError):
    """A structural invariant of a value would be violated."""


class DomainError(BurnsideError):
    """The operation is not defined for this kind of input (e.g. nonabelian group)."""


class ProvenanceError(BurnsideError):
    """Field-label metadata needed for the computation is unresolved."""


def load_json(text: str, what: str):
    """Parse JSON text; text that is malformed, nested too deeply for the
    parser, or holds an integer past Python's digit limit is an
    ``InputError`` naming ``what``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"invalid {what}: {exc}") from exc


def is_int_rows(value) -> bool:
    """Whether a parsed JSON value is an array of arrays of integers
    (booleans excluded)."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(type(x) is int for x in row)
        for row in value
    )
