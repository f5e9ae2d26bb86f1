"""Small shared helpers: fixed-width integer arithmetic, formatting,
environment parsing and atomic file writes."""

import os
import tempfile

from .errors import ConfigurationError

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
HIGH_BIT32 = 0x80000000


def wrap32(value):
    """Wrap ``value`` to an unsigned 32-bit integer (two's complement)."""
    return value & MASK32


def wrap64(value):
    """Wrap ``value`` to an unsigned 64-bit integer (two's complement)."""
    return value & MASK64


def to_signed32(value):
    """Interpret the low 32 bits of ``value`` as a signed integer."""
    value &= MASK32
    return value - (1 << 32) if value & HIGH_BIT32 else value


def atomic_write(path, write):
    """Replace ``path`` atomically with what ``write(stream)`` writes.

    The content goes to a fresh temp file in the same directory, which
    then replaces ``path`` in one ``os.replace``: concurrent writers
    never share a temp file, readers never see a torn entry, and a
    failed write removes its temp file before re-raising.
    """
    handle, temporary = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                         suffix=".tmp")
    try:
        with os.fdopen(handle, "w") as stream:
            write(stream)
        os.replace(temporary, path)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise


def env_int(name, fallback, minimum=1):
    """Parse an integer knob from the environment.

    Unset/empty returns ``fallback``; a non-integer value fails fast
    with a :class:`~repro.errors.ConfigurationError` (never a raw
    traceback); values below ``minimum`` are clamped up to it.
    """
    value = os.environ.get(name)
    if not value:
        return fallback
    try:
        parsed = int(value)
    except ValueError:
        raise ConfigurationError(
            "%s must be an integer, got %r (unset it or export something "
            "like %s=%d)" % (name, value, name, max(fallback or 1, minimum))
        ) from None
    return max(parsed, minimum)


def default_iterations(fallback=10000):
    """Iteration count for runs that name none: ``REPRO_ITERS`` env or
    ``fallback``.

    A non-integer value fails fast with a clear
    :class:`~repro.errors.ConfigurationError`.
    """
    return env_int("REPRO_ITERS", fallback)


def format_table(headers, rows, *, sep="  "):
    """Render ``rows`` (sequences of cells) under ``headers`` as plain text.

    Column widths adapt to content; all cells are stringified.  Used by the
    benchmark harness to print paper-style observation tables.
    """
    table = [[str(cell) for cell in row] for row in rows]
    header_cells = [str(cell) for cell in headers]
    widths = [len(cell) for cell in header_cells]
    for row in table:
        for index, cell in enumerate(row):
            if index >= len(widths):
                widths.append(len(cell))
            else:
                widths[index] = max(widths[index], len(cell))
    lines = [sep.join(cell.ljust(widths[i]) for i, cell in enumerate(header_cells)).rstrip()]
    lines.append(sep.join("-" * width for width in widths))
    for row in table:
        lines.append(sep.join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)
