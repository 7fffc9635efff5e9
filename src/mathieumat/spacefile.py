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

``field`` is either a prime or the letter Q.  Entries are arbitrary
integers; they are reduced modulo p (or read as rationals) only when the
file is resolved against a field, so a single file can serve several
fields via an override.  ``loads`` parses a file and
``SpaceFile.resolve`` builds the space it denotes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import SpaceFileError
from .linalg import Field, VectorSubspace
from .matspace import MatrixSubspace


@dataclass(frozen=True)
class SpaceFile:
    field_token: str          # "Q" or the decimal prime
    n: int
    basis: tuple              # tuple of n x n int tuples, as written
    name: Optional[str] = None

    def resolve(self, field_override: Optional[str] = None):
        """The (Field, MatrixSubspace) this file denotes.

        The flat integer rows go to one elimination as they are over Q
        and reduced mod p over F_p; the basis comes out canonical."""
        token = field_override if field_override is not None else self.field_token
        field = parse_field_token(token)
        n, p = self.n, field.p
        rows = [[x for row in block for x in row] for block in self.basis]
        if (any(len(block) != n or any(len(row) != n for row in block) for block in self.basis)
                or any(type(x) is not int for row in rows for x in row)):
            raise SpaceFileError("the basis must be %d x %d integer matrices" % (n, n))
        if p:
            rows = [[x % p for x in row] for row in rows]
        return field, MatrixSubspace(field, n, VectorSubspace._span(field, n * n, rows))


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


def loads(text: str) -> SpaceFile:
    """Parse a space file; raises SpaceFileError with the offending line."""
    lines = text.splitlines()
    header = {}
    i = 0
    in_basis = False
    while i < len(lines):
        raw = lines[i].strip()
        i += 1
        if not raw or raw.startswith("#"):
            continue
        if raw == "basis":
            in_basis = True
            break
        parts = raw.split(None, 1)
        if len(parts) != 2:
            raise SpaceFileError("expected 'key value'", line=i)
        key, value = parts
        if key not in ("field", "n", "name"):
            raise SpaceFileError("unknown header key %r" % key, line=i)
        if key in header:
            raise SpaceFileError("duplicate header key %r" % key, line=i)
        header[key] = value.strip()
    if "field" not in header:
        raise SpaceFileError("missing 'field' header")
    if "n" not in header:
        raise SpaceFileError("missing 'n' header")
    parse_field_token(header["field"])      # validate early
    try:
        n = int(header["n"])
    except ValueError:
        raise SpaceFileError("n must be an integer, got %r" % header["n"])
    if n < 1:
        raise SpaceFileError("n must be positive, got %d" % n)

    blocks = []
    current = []
    if in_basis:
        while i < len(lines):
            raw = lines[i].strip()
            i += 1
            if raw.startswith("#"):
                continue
            if not raw:
                if current:
                    blocks.append(current)
                    current = []
                continue
            entries = raw.split()
            if len(entries) != n:
                raise SpaceFileError(
                    "expected %d entries, got %d" % (n, len(entries)), line=i)
            try:
                row = tuple(int(x) for x in entries)
            except ValueError:
                raise SpaceFileError("entries must be integers", line=i)
            if len(current) == n:
                raise SpaceFileError(
                    "matrix block has more than %d rows "
                    "(separate blocks with a blank line)" % n, line=i)
            current.append(row)
        if current:
            blocks.append(current)
    for b in blocks:
        if len(b) != n:
            raise SpaceFileError(
                "matrix block has %d rows, expected %d" % (len(b), n))
    return SpaceFile(
        field_token=header["field"],
        n=n,
        basis=tuple(tuple(b) for b in blocks),
        name=header.get("name"))
