"""Plain-text space files: a key-value header plus integer matrix blocks.

Example::

    # any line starting with '#' is a comment
    field 5
    n 3
    name running-example
    basis
    0 1 0
    0 1 0
    0 0 0

    0 0 0
    0 1 1
    0 0 0

``field`` is either a prime or the letter Q; ``name`` is accepted and
ignored.  Entries are arbitrary integers, read over the file's field or
the field that overrides it: reduced modulo p or taken as rationals, so
a single file can serve several fields.  ``loads`` parses a file
straight into the space it denotes, in one pass over its lines.
Lines may end in CRLF; a blank or whitespace-only line ends a block,
and a comment line may stand anywhere.
"""

from __future__ import annotations

from .errors import SpaceFileError
from .linalg import Field, VectorSubspace
from .matspace import MatrixSubspace


def parse_field_token(token: str) -> Field:
    token = str(token).strip()
    if token.upper() == "Q":
        return Field.rationals()
    try:
        p = int(token)
    except ValueError:
        raise SpaceFileError("field must be a prime or Q, got %r" % token)
    try:
        return Field.prime(p)
    except ValueError as exc:
        raise SpaceFileError(str(exc))


def loads(text: str, field_override=None) -> MatrixSubspace:
    """The space a space file denotes, over its own field or over
    ``field_override``; raises SpaceFileError with the offending line.

    The lines are read once: the header up to ``basis``, then each block
    line split once and its entries converted and reduced mod p as it is
    read.  The file's field token is checked even under an override, and
    a bad override is reported after the blocks' errors.  The flat
    integer rows go to one elimination; the basis comes out canonical."""
    lines = enumerate(text.splitlines(), 1)
    header = {}
    for i, raw in lines:
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        if raw == "basis":
            break
        parts = raw.split(None, 1)
        if len(parts) != 2:
            raise SpaceFileError("expected 'key value'", line=i)
        key, value = parts
        if key not in ("field", "n", "name"):
            raise SpaceFileError("unknown header key %r" % key, line=i)
        if key in header:
            raise SpaceFileError("duplicate header key %r" % key, line=i)
        header[key] = value
    for key in ("field", "n"):
        if key not in header:
            raise SpaceFileError("missing %r header" % key)
    field = parse_field_token(header["field"])
    try:
        n = int(header["n"])
    except ValueError:
        raise SpaceFileError("n must be an integer, got %r" % header["n"])
    if n < 1:
        raise SpaceFileError("n must be positive, got %d" % n)
    bad_override = None
    if field_override is not None:
        try:
            field = parse_field_token(field_override)
        except SpaceFileError as exc:   # raised after the blocks' errors
            bad_override = exc

    p, size = field.p, n * n
    blocks = [[]]             # each a flat row of n * n integers
    for i, raw in lines:
        entries = raw.split()
        if not entries:
            if blocks[-1]:
                blocks.append([])
            continue
        if entries[0].startswith("#"):
            continue
        if len(entries) != n:
            raise SpaceFileError("expected %d entries, got %d" % (n, len(entries)), line=i)
        try:
            row = [x % p for x in map(int, entries)] if p else list(map(int, entries))
        except ValueError:
            raise SpaceFileError("entries must be integers", line=i)
        if len(blocks[-1]) == size:
            raise SpaceFileError("matrix block has more than %d rows (separate blocks "
                                 "with a blank line)" % n, line=i)
        blocks[-1] += row
    blocks = [b for b in blocks if b]
    for b in blocks:
        if len(b) != size:
            raise SpaceFileError("matrix block has %d rows, expected %d" % (len(b) // n, n))
    if bad_override is not None:
        raise bad_override
    return MatrixSubspace(field, n, VectorSubspace._span(field, size, blocks))
