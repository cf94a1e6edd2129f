"""Generator matrices as text: the matrix file of ``--matrix``, loaded on first use.

A matrix file is one header line and one line per row::

    sxorgen v1 kind=<kind> K=<int> N=<int> m=<int> g=<hex> [x=<i,j,...>]
    K lines, each N comma-separated bare hex masks (LSB = constant)

Fields after "sxorgen v1" may appear in any order; whitespace between
fields is free-form.  x appears exactly when kind=systematic.  The text
round-trips spec and entries losslessly, and a file claiming a
constructed kind must hold that construction.

``sxor encode`` and ``sxor decode`` import this module only for
``--matrix``: :mod:`sxor.codes` and the root package serve its public
names through PEP 562 ``__getattr__``, which loads it on first use.
"""

from __future__ import annotations

import io
import os
from typing import Iterable, Sequence, Union

from .codes import MAX_KERNEL_BITS, CodeSpec, GenMatrix, format_fields, matrix_for_spec
from .gf2poly import Poly2

__all__ = [
    "MatrixFormatError",
    "format_matrix",
    "parse_fields",
    "parse_matrix",
    "save_matrix",
    "load_matrix",
]


class MatrixFormatError(ValueError):
    """Malformed matrix text; carries 1-based line and field positions."""

    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__(f"line {line}" + (f", field {col}" if col else "") + f": {message}")
        self.line = line
        self.col = col


# Most characters load_matrix reads of a matrix header, one line of
# format_fields text, before K and N are known.  The longest header can
# be, at K = 32 with a 32-bit g and 32 five-digit x positions, is under
# 300.
_FIELDS_LIMIT = 1024


def format_matrix(mat: GenMatrix) -> str:
    lines = ["sxorgen v1 " + format_fields(mat.spec.fields())]
    for row in mat._masks:
        lines.append(",".join(format(e, "x") for e in row))
    return "\n".join(lines) + "\n"


def parse_fields(words: Iterable[str], extra: Sequence[str] = (),
                 first: int = 1) -> tuple[CodeSpec, dict[str, str]]:
    """The reader of :func:`format_fields`: the spec the ``key=value``
    words name, and the raw values of the ``extra`` fields present.

    kind, K, N, m and g are required, x and the extra fields optional,
    each at most once.  K, N and m are decimal, g hex and x a comma list.
    Raises :class:`MatrixFormatError` at line 1, counting the words as
    fields from ``first``.
    """
    seen: dict[str, str] = {}
    for pos, word in enumerate(words, start=first):
        key, sep, value = word.partition("=")
        if not sep:
            raise MatrixFormatError(f"expected key=value, got {word!r}", 1, pos)
        if key in seen:
            raise MatrixFormatError(f"repeated field {key!r}", 1, pos)
        seen[key] = value
    for required in ("kind", "K", "N", "m", "g"):
        if required not in seen:
            raise MatrixFormatError(f"missing field {required!r}", 1)
    unknown = set(seen) - {"kind", "K", "N", "m", "g", "x", *extra}
    if unknown:
        raise MatrixFormatError(f"unknown fields {sorted(unknown)}", 1)
    try:
        k, n, m = (int(seen[key], 10) for key in ("K", "N", "m"))
        x = tuple(int(part, 10) for part in seen["x"].split(",")) if "x" in seen else None
    except ValueError:
        raise MatrixFormatError("K, N and m must be decimal integers, and x a comma list "
                                "of them", 1) from None
    try:
        spec = CodeSpec(seen["kind"], k, n, m, Poly2.from_hex(seen["g"]), x)
    except ValueError as exc:
        raise MatrixFormatError(str(exc), 1) from None
    return spec, {key: seen[key] for key in extra if key in seen}


def parse_matrix(text: str) -> GenMatrix:
    lines = text.splitlines()
    return _matrix_rows(_matrix_spec(lines[0] if lines else ""), iter(lines[1:]))


def _ascii_line(line: str, lineno: int) -> str:
    # load_matrix reads a file as ASCII with surrogateescape, so a byte b
    # over 0x7f arrives as chr(0xDC00 + b): name it and its line.
    if not line.isascii():
        for col, ch in enumerate(line, start=1):
            if "\udc80" <= ch <= "\udcff":
                raise MatrixFormatError(f"non-ASCII byte {ord(ch) - 0xDC00:#04x} "
                                        f"at column {col}", lineno)
    return line


def _matrix_spec(header: str) -> CodeSpec:
    header = _ascii_line(header, 1)
    if not header.strip():
        raise MatrixFormatError("missing header", 1)
    fields = header.split()
    if fields[:2] != ["sxorgen", "v1"]:
        raise MatrixFormatError("expected 'sxorgen v1' header", 1, 1)
    return parse_fields(fields[2:], first=3)[0]


def _matrix_rows(spec: CodeSpec, lines: Iterable[str]) -> GenMatrix:
    # The entry rows after the header line; reads lines up to the one
    # holding row K + 1, or to the end.
    k, n = spec.k, spec.n
    body = []
    lineno = 1
    for lineno, line in enumerate(lines, start=2):
        if _ascii_line(line, lineno).strip():
            if len(body) == k:
                raise MatrixFormatError(f"expected {k} entry rows, found more", lineno)
            body.append((lineno, line))
    if len(body) != k:
        raise MatrixFormatError(f"expected {k} entry rows, found {len(body)}", lineno + 1)
    grid = []
    for lineno, line in body:
        parts = line.split(",")
        if len(parts) != n:
            raise MatrixFormatError(f"expected {n} entries, found {len(parts)}", lineno)
        row = []
        for col, part in enumerate(parts, start=1):
            try:
                row.append(Poly2.from_hex(part))
            except ValueError as exc:
                raise MatrixFormatError(str(exc), lineno, col) from None
        grid.append(row)
    try:
        mat = GenMatrix(spec, grid)
    except ValueError as exc:
        raise MatrixFormatError(str(exc), 2) from None
    # A file claiming a constructed kind must actually contain that
    # construction; otherwise decoders would trust a wrong label.
    expected = matrix_for_spec(spec)
    if expected is not None and mat._masks != expected._masks:
        raise MatrixFormatError(f"entries do not match the declared {spec.kind} construction", 2)
    return mat


PathOrFile = Union[str, os.PathLike, io.TextIOBase]


def save_matrix(mat: GenMatrix, dest: PathOrFile) -> None:
    """Write the text form to a path or text file object."""
    text = format_matrix(mat)
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="ascii") as fh:
            fh.write(text)


def _rows_limit(k: int, n: int) -> int:
    # Most characters the entry rows of a valid K x N matrix file take:
    # per entry, "0x" and the hex digits of MAX_KERNEL_BITS // K bits,
    # then a comma or a line end, plus one for a CR or a blank line.
    return k * n * (-(-(MAX_KERNEL_BITS // k) // 4) + 4)


def load_matrix(src: PathOrFile) -> GenMatrix:
    """Read the text form from a path or text file object.

    Reads the header line first, at most 1024 characters of it.  A file
    whose rows hold more characters than a valid K x N matrix can take
    (``_rows_limit``) is refused once that many are read, as is one with
    a row past the K-th, so a malformed file costs bounded time and
    memory.  The budget allows each entry two characters beyond the
    widest one :func:`save_matrix` writes; within it, the result is that
    of :func:`parse_matrix` on the whole text, but a file padded further
    (leading zeros, spaces, blank lines) is refused here.
    """
    if not hasattr(src, "read"):
        with open(src, "r", encoding="ascii", errors="surrogateescape") as fh:
            return load_matrix(fh)
    first = src.readline(_FIELDS_LIMIT + 1)
    if len(first) > _FIELDS_LIMIT:
        raise MatrixFormatError(f"header is longer than {_FIELDS_LIMIT} characters", 1)
    # Lines as parse_matrix's splitlines() cuts them, which also ends a
    # line at characters readline() reads through, such as \x1c.
    header, *rest = first.splitlines() or [""]
    spec = _matrix_spec(header)
    limit = _rows_limit(spec.k, spec.n)

    def lines():
        yield from rest
        left = limit
        while line := src.readline(left + 1):
            left -= len(line)
            if left < 0:
                raise MatrixFormatError(f"the rows hold more than {limit} characters, "
                                        f"the most that K={spec.k} N={spec.n} entries take", 2)
            yield from line.splitlines()

    return _matrix_rows(spec, lines())
