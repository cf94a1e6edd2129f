"""Command-line front end.

Subcommands: encode, decode, analyze, classify, check, matrix print,
matrix load.  Exit codes: 0 on success, 1 for runtime failures (bad
files, undecodable or corrupt packets, a failed MDS check), 2 for usage
errors (bad invocation, wrong packet count, empty input).

Packets are written as ``<name>.p<i>.sxp``, each header holding the
input's byte length and ``zlib.crc32``, next to a ``<name>.sxmeta``
sidecar that records the same length, the code fields and the crc32 as
one ``key=value`` line for people and other tools; decode never reads
it.  Decode takes the length and crc32 from the K packet headers,
refuses packets that disagree on either or that hold no file (length 0,
as the library's packets do), and checks the restored bytes against the
crc32, so any K packets restore the file, wherever they lie, and a
flipped bit in one of them never yields other bytes with exit 0.  Both
take the crc32 from the bytes the file driver reads or writes, so
encode reads its input once and decode never reads its output back.
Decode always uses the exact (MAP) decoder, so it refuses exactly the
survivor sets that check lists as failing.

Encode and decode stream their files through the codec's file driver
(``codec._encode_file`` and ``codec._decode_files``), 2**19 bits of each
source at a time, so their memory does not grow with the file; the
packets are the bytes ``write_packet`` writes.  This module keeps the
arguments, the sidecar and the replacing of files.  A stream
that passes through unchanged is copied as the bytes read: encode
writes each packet whose column is 1 for one source from that source's
bytes, and decode writes each source whose packet survived from its
payload bytes.  Only the streams some combine or division reads become
ints, so a decode from the K packets a systematic code holds verbatim
is a plain copy.  Both read exactly the bytes they sized from the input
or the packet headers, so a file that has become shorter since is an
error naming it.  A packet whose header fails a check is named by its
path, as is a matrix file whose text fails one; a --matrix that does not
match the packet headers names the fields that differ.  Each command
writes new files next to the ones it replaces and renames them into
place only once it has written the last stripe (for decode, once every
division and the crc32 have checked out), so a failed run leaves the
packets, sidecar or --out as they were.  A path replaced must be a
regular file, and the new file takes its permission bits, else 0666
less the umask.  Encode holds only its input open: it opens a packet
only while it writes a stripe to it, so N is not bounded by the
open-file limit.  The CLI never imports ``sxor.zigzag``, and encode and
decode import none of ``sxor.analysis``, ``sxor.matrix_file`` and
``json``: the first loads only for analyze --compare, classify and
check, the second only for --matrix and the matrix commands, and the
third only for the commands with --format.

A code is named either by --matrix, by --kind zd3, or by --kind with
--k, --n and optionally --g and --x; passing --k, --n, --g or --x next
to --matrix or --kind zd3 is a usage error, and so is a --kind other
than user that differs from the kind the --matrix file declares.
analyze --compare names no code, so any of these flags but --n is a
usage error there.  The field modulus comes from --g, else the built-in
table entry for the smallest degree that fits N.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import tempfile
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path
from typing import Iterator, Sequence

from .codec import _agreed, _decode_files, _encode_file, _open_packet
# The library's whole-packet I/O; the CLI streams instead, but
# perfbench/tracing.py still wraps these names here.
from .codec import read_packet, write_packet  # noqa: F401
from .codes import CodeSpec, GenMatrix, format_fields, matrix_for_spec
from .gf2m import FieldCtx, default_modulus
from .gf2poly import Poly2

__all__ = ["main"]


class _UsageError(Exception):
    """Invocation problem detected after argument parsing."""


def _resolve_g(args, n: int) -> Poly2:
    if not args.g:
        return default_modulus(n.bit_length())
    try:
        return Poly2.from_hex(args.g)
    except ValueError:
        raise _UsageError(f"--g must be a hex mask, got {args.g!r}") from None


def _parse_x(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part, 10) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"--x must be comma-separated integers, got {text!r}") from None


def _load_matrix(path: str) -> GenMatrix:
    # load_matrix, with an error in the file's text naming the file.
    from .matrix_file import MatrixFormatError, load_matrix

    try:
        return load_matrix(path)
    except MatrixFormatError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _differing(spec: CodeSpec, other: CodeSpec) -> str:
    # The fields in which two specs differ, in header order.
    return ", ".join(key for key, v in spec.fields().items() if other.fields()[key] != v)


def _resolve_matrix(args) -> GenMatrix:
    fixed = "--matrix" if args.matrix else "--kind zd3" if args.kind == "zd3" else None
    if fixed:
        for flag in ("k", "n", "g", "x"):
            if getattr(args, flag) is not None:
                raise _UsageError(f"--{flag} cannot be combined with {fixed}")
        if args.matrix:
            mat = _load_matrix(args.matrix)
            if args.kind not in (None, "user", mat.spec.kind):
                raise _UsageError(f"--kind {args.kind} does not match {args.matrix}, "
                                  f"which holds a {mat.spec.kind} code")
            return mat
        return matrix_for_spec(CodeSpec("zd3", 3, 6))
    kind = args.kind or "sxor"
    if kind == "user":
        raise _UsageError("kind user needs --matrix")
    if args.k is None or args.n is None:
        raise _UsageError(f"kind {kind} needs --k and --n (or --matrix)")
    g = _resolve_g(args, args.n)
    if kind == "sxor" and args.x:
        raise _UsageError("--x only applies to systematic codes")
    x = None
    if kind == "systematic":
        x = _parse_x(args.x) if args.x else tuple(range(1, args.k + 1))
    ctx = FieldCtx(g)
    return matrix_for_spec(CodeSpec(kind, args.k, args.n, ctx.m, ctx.g, x))


def cmd_encode(args) -> int:
    mat = _resolve_matrix(args)
    out_dir = Path(args.out_dir)
    stem = Path(args.input).name
    with open(args.input, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if not size:
            raise _UsageError(f"input file {args.input} is empty")
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = [out_dir / f"{stem}.p{j}.sxp" for j in range(1, mat.spec.n + 1)]
        paths.append(out_dir / f"{stem}.sxmeta")
        with _replacing(paths, list(map(str, paths))) as temps:
            crc = _encode_file(mat, fh, size, temps[:-1])
            meta = format_fields({"len": size, **mat.spec.fields(), "crc32": f"{crc:08x}"})
            Path(temps[-1]).write_bytes(meta.encode("ascii") + b"\n")
    print(f"wrote {mat.spec.n} packets and {stem}.sxmeta to {out_dir}")
    return 0


@contextmanager
def _replacing(paths: Sequence[Path], labels: Sequence[str]) -> Iterator[list[str]]:
    """Paths of new empty files, renamed onto ``paths`` only once the block ends without error.

    Each is made in its path's directory, and is not left open: the
    block opens it as it needs.  Each takes the permission bits of the
    file it replaces, else 0666 less the umask, as ``open(path, "wb")``
    gives a new file.  Renaming onto a device, FIFO or directory would
    replace it, so a path that exists must be a regular file; ``labels``
    name the paths in that error.  On any error every new file is
    removed, so the paths are left as they were.
    """
    modes = []
    for path, label in zip(paths, labels):
        try:
            mode = path.stat().st_mode
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        else:
            if not stat.S_ISREG(mode):
                raise ValueError(f"{label} exists and is not a regular file")
        modes.append(mode & 0o777)
    temps = []
    try:
        for path in paths:
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
            temps.append(tmp)
            os.close(fd)
        yield temps
        for tmp, mode in zip(temps, modes):
            os.chmod(tmp, mode)
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            with suppress(FileNotFoundError):  # already renamed into place
                os.unlink(tmp)
        raise


def cmd_decode(args) -> int:
    with ExitStack() as stack:
        packets = []
        for path in args.packets:
            fh, head = _open_packet(path)
            stack.callback(fh.close)
            packets.append((fh, head))
        _decode(args, packets)
    return 0


def _decode(args, packets) -> None:
    heads = [head for _, head in packets]
    spec = _agreed(heads, "spec", lambda value: format_fields(value.fields()))
    if len(heads) != spec.k:
        raise _UsageError(f"this code needs exactly {spec.k} packets, got {len(heads)}")
    if args.matrix:
        mat = _load_matrix(args.matrix)
        if mat.spec != spec:
            raise ValueError("--matrix does not match the packet headers: "
                             f"{args.matrix} differs in {_differing(spec, mat.spec)}")
    else:
        mat = matrix_for_spec(spec)
        if mat is None:
            raise _UsageError("user-kind packets need --matrix to decode")
    size = _agreed(heads, "file_len")
    crc = _agreed(heads, "crc32", lambda value: f"crc32={value:08x}")
    if not size:
        raise ValueError("the packets hold no file (file_len=0): sxor encode did not write them")
    bit_len = _agreed(heads, "source_len")
    if bit_len % 8:
        raise ValueError(f"source length {bit_len} is not a whole number of bytes")
    chunk = bit_len // 8
    if size > spec.k * chunk:
        raise ValueError(f"file_len={size} exceeds decoded size {spec.k * chunk}")

    # Decode into a new file next to --out, and put it in place only once
    # every division, and the crc32, has checked out.
    with _replacing([Path(args.out)], [f"--out {args.out}"]) as (tmp,):
        with open(tmp, "wb") as fh:
            got = _decode_files(mat, packets, fh, size)
        if got != crc:
            raise ValueError(f"the restored bytes have crc32={got:08x}, but the packet headers "
                             f"state crc32={crc:08x}")
    print(f"restored {size} bytes to {args.out}")


def _emit(fmt: str, doc: dict, text: str) -> int:
    # The one printer of every command with --format: doc is the JSON form.
    import json  # here, so that encode and decode do not load it

    print(json.dumps(doc, indent=2) + "\n" if fmt == "json" else text, end="")
    return 0


def _code_lines(mat: GenMatrix) -> str:
    # The code's fields, then its metrics, as analyze and matrix load print them.
    return f"{format_fields(mat.spec.fields())}\n{format_fields(mat.metrics()._asdict())}\n"


def cmd_analyze(args) -> int:
    if args.compare:
        for flag in ("kind", "k", "g", "x", "matrix"):
            if getattr(args, flag) is not None:
                raise _UsageError(f"--{flag} cannot be combined with --compare")
        n = args.n if args.n is not None else 7
        ks = tuple(k for k in range(2, 7) if k <= n)
        from .analysis import comparison_report, emit_comparison

        report = comparison_report(n, ks)
        return _emit(args.format, report.to_json_dict(), emit_comparison(report))
    mat = _resolve_matrix(args)
    over = mat.column_overheads()
    doc = {**mat.spec.fields(), **mat.metrics()._asdict(), "overheads": over}
    return _emit(args.format, doc, _code_lines(mat) + f"overheads: {','.join(map(str, over))}\n")


def cmd_classify(args) -> int:
    from .analysis import emit_report, enumerate_classes

    report = enumerate_classes(args.k, args.n, _resolve_g(args, args.n))
    return _emit(args.format, report.to_json_dict(), emit_report(report))


def cmd_check(args) -> int:
    mat = _resolve_matrix(args)
    ok, failing = mat.check_suboptimal()
    print(f"sub-optimal: {'true' if ok else 'false'}")
    for comb in failing:
        print("failing: " + ",".join(str(j) for j in comb))
    return 0 if ok else 1


def cmd_matrix_print(args) -> int:
    from .matrix_file import save_matrix

    save_matrix(_resolve_matrix(args), args.out or sys.stdout)
    return 0


def cmd_matrix_load(args) -> int:
    print(_code_lines(_load_matrix(args.file)), end="")
    return 0


def _add_code_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=["sxor", "systematic", "zd3", "user"],
                   help="code construction (default: sxor, or the kind of --matrix)")
    p.add_argument("--k", type=int, help="number of source packets")
    p.add_argument("--n", type=int, help="number of encoded packets")
    p.add_argument("--g", help="field modulus as a hex mask, e.g. 0xb")
    p.add_argument("--x", help="systematic packet positions, e.g. 1,3,4 (default 1..K)")
    p.add_argument("--matrix", help="generator matrix file (required for kind user)")


def _add_encode(p: argparse.ArgumentParser) -> None:
    _add_code_args(p)
    p.add_argument("input", help="file to encode")
    p.add_argument("--out-dir", default=".", help="directory for packet files")
    p.set_defaults(func=cmd_encode)


def _add_decode(p: argparse.ArgumentParser) -> None:
    p.add_argument("packets", nargs="+", help="surviving packet files")
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--matrix", help="generator matrix file (user-kind packets)")
    p.set_defaults(func=cmd_decode)


def _add_analyze(p: argparse.ArgumentParser) -> None:
    _add_code_args(p)
    p.add_argument("--compare", action="store_true",
                   help="side-by-side table of all constructions for K=2..6")
    p.add_argument("--format", choices=["markdown", "json"], default="markdown")
    p.set_defaults(func=cmd_analyze)


def _add_classify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", help="field modulus as a hex mask")
    p.add_argument("--format", choices=["markdown", "json"], default="markdown")
    p.set_defaults(func=cmd_classify)


def _add_check(p: argparse.ArgumentParser) -> None:
    _add_code_args(p)
    p.set_defaults(func=cmd_check)


def _add_matrix(p: argparse.ArgumentParser) -> None:
    msub = p.add_subparsers(dest="matrix_command", required=True)
    mp = msub.add_parser("print", help="emit a generator matrix in text form")
    _add_code_args(mp)
    mp.add_argument("--out", help="write to a file instead of stdout")
    mp.set_defaults(func=cmd_matrix_print)
    ml = msub.add_parser("load", help="validate a matrix file and summarize it")
    ml.add_argument("file")
    ml.set_defaults(func=cmd_matrix_load)


# Each subcommand's help line and the function that adds its arguments.
_COMMANDS = {
    "encode": ("split one file into N packet files", _add_encode),
    "decode": ("restore the file from K packet files", _add_decode),
    "analyze": ("overhead and XOR-cost metrics", _add_analyze),
    "classify": ("equivalence classes of systematic codes", _add_classify),
    "check": ("verify every K-subset of packets decodes", _add_check),
    "matrix": ("matrix file utilities", _add_matrix),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser: every subcommand's, or only ``command``'s.

    A parser for one command lists every command in its usage, as the
    full tree does, so its help and error messages are the full tree's.
    """
    parser = argparse.ArgumentParser(
        prog="sxor",
        description="Shift-and-XOR erasure codes: encode, decode, analyze.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name, (text, add) in _COMMANDS.items():
        if command in (None, name):
            add(sub.add_parser(name, help=text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the invoked command's parser; --help, no command or an unknown
    # one gets the full tree, whose messages list every command.
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:  # every sxor error is one of these
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
