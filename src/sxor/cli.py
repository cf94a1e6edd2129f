"""Command-line front end.

Subcommands: encode, decode, analyze, classify, check, matrix print,
matrix load.  Exit codes: 0 on success, 1 for runtime failures (bad
files, undecodable or corrupt packets, a failed MDS check), 2 for usage
errors (bad invocation, wrong packet count, empty input).

Packets are written as ``<name>.p<i>.sxp`` next to a ``<name>.sxmeta``
sidecar recording the original byte length and the code fields; decode
finds the sidecar by stripping the packet suffix from the first packet
argument, reads it with the matrix-header reader ``codes.parse_fields``
and rejects it unless its code matches the packet headers.  Decode
always uses the exact (MAP) decoder, so it refuses exactly the survivor
sets that check lists as failing.

Encode and decode stream their files through the codec's stripe core,
2**19 bits of each source at a time, so their memory does not grow with
the file; the packets are the bytes ``write_packet`` writes.  Decode
reads each packet header once, writes the restored bytes to a new file
next to --out and renames it onto --out only once every division has
checked out, so a failed decode leaves --out as it was.  An existing
--out must be a regular file; the new one takes its permission bits.

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
import json
import os
import re
import stat
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path
from typing import BinaryIO, Sequence

from .analysis import comparison_report, emit_comparison, emit_report, enumerate_classes
from .codec import _Run, _check_headers, _encoder, _header_bytes, _open_packet, map_kernel
# The library's whole-packet I/O; the CLI streams instead, but
# perfbench/tracing.py still wraps these names here.
from .codec import read_packet, write_packet  # noqa: F401
from .codes import (_FIELDS_LIMIT, CodeSpec, GenMatrix, MatrixFormatError, format_fields,
                    load_matrix, matrix_for_spec, parse_fields, save_matrix)
from .gf2m import FieldCtx, default_modulus
from .gf2poly import Poly2

__all__ = ["main"]

_PACKET_SUFFIX = re.compile(r"\.p(\d+)\.sxp$")

# Bits per stripe of each stream that encode and decode run through the
# codec's stripe core (64 KiB).  On CLI decodes of 16 MiB files,
# 2**18..2**20 were within noise of each other and 2**21 up to 1.2x
# slower; peak RSS rose with the width (CHANGES.md).
_STRIPE = 1 << 19


class _UsageError(Exception):
    """Invocation problem detected after argument parsing."""


def _resolve_g(args, n: int) -> Poly2:
    return Poly2.from_hex(args.g) if args.g else default_modulus(n.bit_length())


def _parse_x(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part, 10) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"--x must be comma-separated integers, got {text!r}") from None


def _resolve_matrix(args) -> GenMatrix:
    fixed = "--matrix" if args.matrix else "--kind zd3" if args.kind == "zd3" else None
    if fixed:
        for flag in ("k", "n", "g", "x"):
            if getattr(args, flag) is not None:
                raise _UsageError(f"--{flag} cannot be combined with {fixed}")
        if args.matrix:
            mat = load_matrix(args.matrix)
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
        _encode_file(mat, fh, size, [out_dir / f"{stem}.p{j}.sxp" for j in range(1, mat.spec.n + 1)])
    meta = format_fields({"len": size, **mat.spec.fields()})
    (out_dir / f"{stem}.sxmeta").write_text(meta + "\n", encoding="ascii")
    print(f"wrote {mat.spec.n} packets and {stem}.sxmeta to {out_dir}")
    return 0


def _encode_file(mat: GenMatrix, src: BinaryIO, size: int, dests: Sequence[Path]) -> None:
    """Encode the first ``size`` bytes of ``src`` into one packet file per path in ``dests``.

    The bytes split into K sources of ceil(size / K) bytes, the last
    zero-padded.  Every header is formed before the first file is
    opened, so a header field overflow writes nothing.
    """
    chunk = -(-size // mat.spec.k)
    length = 8 * chunk
    over = mat.column_overheads()
    heads = [_header_bytes(mat.spec, j + 1, length, length + w) for j, w in enumerate(over)]
    net, outs = _encoder(mat)
    run = _Run(net, length)
    stripe = _STRIPE // 8
    stripes = (chunk - 1) // stripe
    with ExitStack() as stack:
        files = [stack.enter_context(open(d, "wb")) for d in dests]
        for fh, head in zip(files, heads):
            fh.write(head)
        for t in range(stripes + 1):
            final = t == stripes
            width = chunk - t * stripe if final else stripe
            pieces = []
            for i in range(mat.spec.k):
                src.seek(i * chunk + t * stripe)
                pieces.append(int.from_bytes(src.read(width), "little"))
            run.push(pieces, 8 * width, final)
            for fh, q, w in zip(files, outs, over):
                fh.write(run.take(q).to_bytes(width + (w + 7) // 8 if final else width, "little"))


def _decode_files(mat: GenMatrix, packets: Sequence[tuple], dest: BinaryIO, size: int) -> None:
    """Decode the (file, header) pairs of ``codec._open_packet`` into ``dest``'s first ``size`` bytes.

    The same checks, kernel and stripe core as ``codec.map_decode``;
    source c fills bytes c * L/8 up to (c + 1) * L/8 of the output, as far
    as ``size`` reaches, and L must be whole bytes.  Bytes are written as
    stripes complete, and an error is raised only after the last one.
    """
    length, idx = _check_headers(mat, [head for _, head in packets])
    net, outs = map_kernel(mat, idx).network
    run = _Run(net, length)
    files = {head.index: fh for fh, head in packets}
    files = [files[p] for p in idx]
    chunk, stripe = length // 8, _STRIPE // 8
    stripes = (chunk - 1) // stripe
    done = [0] * len(outs)  # bytes of each source taken so far
    for t in range(stripes + 1):
        final = t == stripes
        run.push([int.from_bytes(fh.read() if final else fh.read(stripe), "little") for fh in files],
                 _STRIPE, final)
        for c, q in enumerate(outs):
            nbytes = chunk - done[c] if final else run.bits[q] // 8
            if not nbytes:
                continue
            data = run.take(q, None if final else 8 * nbytes).to_bytes(nbytes, "little")
            at = c * chunk + done[c]
            done[c] += nbytes
            if at < size:
                dest.seek(at)
                dest.write(data[:size - at])


def _read_sidecar(first_packet: Path) -> tuple[Path, CodeSpec, str | None] | None:
    # The sidecar's spec and raw len, or None when there is no sidecar.
    name = first_packet.name
    m = _PACKET_SUFFIX.search(name)
    if not m:
        return None
    sidecar = first_packet.parent / (name[:m.start()] + ".sxmeta")
    if not sidecar.exists():
        return None
    with open(sidecar, "rb") as fh:
        data = fh.read(_FIELDS_LIMIT + 1)
    if len(data) > _FIELDS_LIMIT:
        raise ValueError(f"sidecar {sidecar}: larger than the limit of {_FIELDS_LIMIT} bytes")
    try:
        first, *rest = data.decode("ascii").splitlines() or [""]
        for line, text in enumerate(rest, start=2):
            if text.strip():  # encode writes one line
                raise MatrixFormatError("a sidecar holds one line of fields", line)
        spec, extra = parse_fields(first.split(), ("len",))
    except UnicodeDecodeError as exc:
        raise ValueError(f"sidecar {sidecar}: non-ASCII byte {exc.object[exc.start]:#04x} "
                         f"at offset {exc.start}") from None
    except MatrixFormatError as exc:
        raise ValueError(f"sidecar {sidecar}: {exc}") from None
    return sidecar, spec, extra.get("len")


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
    spec = packets[0][1].spec
    if len(packets) != spec.k:
        raise _UsageError(f"this code needs exactly {spec.k} packets, got {len(packets)}")
    total_len, len_source = args.length, "--length"
    if total_len is not None and total_len < 0:
        raise _UsageError(f"--length must not be negative, got {total_len}")
    if args.matrix:
        mat = load_matrix(args.matrix)
        if mat.spec != spec:
            raise ValueError("--matrix does not match the packet headers")
    else:
        mat = matrix_for_spec(spec)
        if mat is None:
            raise _UsageError("user-kind packets need --matrix to decode")

    found = _read_sidecar(Path(args.packets[0]))
    if found is not None:
        sidecar, sidecar_spec, sidecar_len = found
        if sidecar_spec != spec:
            diff = [key for key, v in spec.fields().items() if sidecar_spec.fields()[key] != v]
            raise ValueError("sidecar metadata does not match the packet headers: "
                             f"{sidecar} differs in {', '.join(diff)}")
        if total_len is None and sidecar_len is not None:
            if not sidecar_len.isdecimal():  # the file was read as ASCII
                raise ValueError(f"sidecar {sidecar}: len={sidecar_len!r} "
                                 "is not a non-negative decimal integer")
            total_len, len_source = int(sidecar_len), "sidecar length"
    if total_len is None:
        raise _UsageError("original length unknown: no sidecar found, pass --length")
    bit_len = packets[0][1].source_len
    if bit_len % 8:
        raise ValueError(f"source length {bit_len} is not a whole number of bytes")
    chunk = bit_len // 8
    if total_len > spec.k * chunk:
        raise ValueError(f"{len_source} {total_len} exceeds decoded size {spec.k * chunk}")

    # Decode into a new file next to --out, and put it in place only once
    # every division has checked out.  Renaming onto a device, FIFO or
    # directory would replace it, so --out must be a regular file if it
    # exists; the new file keeps its permission bits.
    out = Path(args.out)
    try:
        mode = out.stat().st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask  # what open(args.out, "wb") would have made
    else:
        if not stat.S_ISREG(mode):
            raise ValueError(f"--out {args.out} exists and is not a regular file")
    fd, tmp = tempfile.mkstemp(dir=out.parent, prefix=f".{out.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            _decode_files(mat, packets, fh, total_len)
        os.chmod(tmp, mode & 0o777)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise
    print(f"restored {total_len} bytes to {args.out}")


def _emit(fmt: str, doc: dict, text: str) -> int:
    # The one printer of every command with --format: doc is the JSON form.
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
        report = comparison_report(n, ks)
        return _emit(args.format, report.to_json_dict(), emit_comparison(report))
    mat = _resolve_matrix(args)
    over = mat.column_overheads()
    doc = {**mat.spec.fields(), **mat.metrics()._asdict(), "overheads": over}
    return _emit(args.format, doc, _code_lines(mat) + f"overheads: {','.join(map(str, over))}\n")


def cmd_classify(args) -> int:
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
    save_matrix(_resolve_matrix(args), args.out or sys.stdout)
    return 0


def cmd_matrix_load(args) -> int:
    print(_code_lines(load_matrix(args.file)), end="")
    return 0


def _add_code_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=["sxor", "systematic", "zd3", "user"],
                   help="code construction (default: sxor, or the kind of --matrix)")
    p.add_argument("--k", type=int, help="number of source packets")
    p.add_argument("--n", type=int, help="number of encoded packets")
    p.add_argument("--g", help="field modulus as a hex mask, e.g. 0xb")
    p.add_argument("--x", help="systematic packet positions, e.g. 1,3,4 (default 1..K)")
    p.add_argument("--matrix", help="generator matrix file (required for kind user)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sxor",
        description="Shift-and-XOR erasure codes: encode, decode, analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="split one file into N packet files")
    _add_code_args(p)
    p.add_argument("input", help="file to encode")
    p.add_argument("--out-dir", default=".", help="directory for packet files")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="restore the file from K packet files")
    p.add_argument("packets", nargs="+", help="surviving packet files")
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--matrix", help="generator matrix file (user-kind packets)")
    p.add_argument("--length", type=int, help="original byte length (overrides sidecar)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("analyze", help="overhead and XOR-cost metrics")
    _add_code_args(p)
    p.add_argument("--compare", action="store_true",
                   help="side-by-side table of all constructions for K=2..6")
    p.add_argument("--format", choices=["markdown", "json"], default="markdown")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="equivalence classes of systematic codes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", help="field modulus as a hex mask")
    p.add_argument("--format", choices=["markdown", "json"], default="markdown")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", help="verify every K-subset of packets decodes")
    _add_code_args(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("matrix", help="matrix file utilities")
    msub = p.add_subparsers(dest="matrix_command", required=True)
    mp = msub.add_parser("print", help="emit a generator matrix in text form")
    _add_code_args(mp)
    mp.add_argument("--out", help="write to a file instead of stdout")
    mp.set_defaults(func=cmd_matrix_print)
    ml = msub.add_parser("load", help="validate a matrix file and summarize it")
    ml.add_argument("file")
    ml.set_defaults(func=cmd_matrix_load)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
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
