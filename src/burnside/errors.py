"""The package's three error classes, and the checks that turn malformed
JSON input into an ``InputError``.

The CLI exits 3 on a ``SizeError`` and 2 on any other ``BurnsideError``.
A bare ``BurnsideError`` is a failed check on the package's own results,
a bug rather than bad input."""

import json


class BurnsideError(Exception):
    """Base class of the package's errors, raised itself by self-checks."""


class InputError(BurnsideError):
    """Malformed, inconsistent or out-of-domain input, or a broken precondition."""


class SizeError(BurnsideError):
    """An input whose cost is over its configured bound."""


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
