"""Exception types shared across the package, and the text-file opener that raises one."""

import contextlib


class DataError(ValueError):
    """Malformed input data: bad JSONL, unknown labels, schema violations."""


class NumericError(ArithmeticError):
    """Non-finite values or numeric failures during computation."""


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 text file to read; bytes that do not decode raise a DataError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"not UTF-8 ({exc.reason}): {str(path)!r}") from None
