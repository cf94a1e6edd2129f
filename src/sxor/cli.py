"""Command-line front end.

Subcommands: encode, decode, analyze, classify, check, matrix print,
matrix load.  Exit codes: 0 on success, 1 for runtime failures (bad
files, undecodable or corrupt packets, a failed MDS check), 2 for usage
errors (bad invocation, wrong packet count, empty input).

Packets are written as ``<name>.p<i>.sxp`` next to a ``<name>.sxmeta``
sidecar recording the original byte length and the code fields; decode
finds the sidecar by stripping the packet suffix from the first packet
argument and rejects it unless its code fields match the packet headers.

A code is named either by --matrix, by --kind zd3, or by --kind with
--k, --n and optionally --g and --x; passing --k, --n, --g or --x next
to --matrix or --kind zd3 is a usage error.  The field modulus comes
from --g, else the built-in table entry for the smallest degree that
fits N.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .analysis import comparison_report, emit_comparison, emit_report, enumerate_classes
from .codec import encode, map_decode, read_packet, write_packet, zigzag_decode
from .codes import CodeSpec, GenMatrix, format_matrix, load_matrix, matrix_for_spec
from .gf2m import FieldCtx, default_modulus
from .gf2poly import Poly2

__all__ = ["main"]

_PACKET_SUFFIX = re.compile(r"\.p(\d+)\.sxp$")


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
            return load_matrix(args.matrix)
        return matrix_for_spec(CodeSpec("zd3", 3, 6))
    kind = args.kind
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


def _sidecar_fields(spec: CodeSpec) -> dict[str, str]:
    # The code fields of a .sxmeta sidecar, as encode writes them and as
    # decode expects them to match the packet headers.
    fields = {"k": str(spec.k), "n": str(spec.n), "g": f"0x{spec.g.mask:x}", "kind": spec.kind}
    if spec.x is not None:
        fields["x"] = ",".join(str(i) for i in spec.x)
    return fields


def cmd_encode(args) -> int:
    mat = _resolve_matrix(args)
    k = mat.spec.k
    with open(args.input, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if not size:
            raise _UsageError(f"input file {args.input} is empty")
        chunk = (size + k - 1) // k
        # A short last chunk reads as if zero-padded: its high bytes are zero.
        sources = [int.from_bytes(fh.read(chunk), "little") for _ in range(k)]
    packets = encode(mat, sources, chunk * 8)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).name
    for p in packets:
        write_packet(p, out_dir / f"{stem}.p{p.index}.sxp")
    fields = {"len": str(size), **_sidecar_fields(mat.spec)}
    meta = " ".join(f"{key}={value}" for key, value in fields.items())
    (out_dir / f"{stem}.sxmeta").write_text(meta + "\n", encoding="ascii")
    print(f"wrote {mat.spec.n} packets and {stem}.sxmeta to {out_dir}")
    return 0


def _read_sidecar(first_packet: Path) -> tuple[Path, dict[str, str]] | None:
    name = first_packet.name
    m = _PACKET_SUFFIX.search(name)
    if not m:
        return None
    sidecar = first_packet.parent / (name[:m.start()] + ".sxmeta")
    if not sidecar.exists():
        return None
    try:
        text = sidecar.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"sidecar {sidecar}: non-ASCII byte {exc.object[exc.start]:#04x} "
                         f"at offset {exc.start}") from None
    fields = {}
    for part in text.split():
        key, _, value = part.partition("=")
        fields[key] = value
    return sidecar, fields


def cmd_decode(args) -> int:
    packets = [read_packet(Path(p)) for p in args.packets]
    spec = packets[0].spec
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
        sidecar, meta = found
        sidecar_len = meta.pop("len", None)
        if meta != _sidecar_fields(spec):
            raise ValueError("sidecar metadata does not match the packet headers")
        if total_len is None and sidecar_len is not None:
            if not sidecar_len.isdecimal():  # the file was read as ASCII
                raise ValueError(f"sidecar {sidecar}: len={sidecar_len!r} "
                                 "is not a non-negative decimal integer")
            total_len, len_source = int(sidecar_len), "sidecar length"
    if total_len is None:
        raise _UsageError("original length unknown: no sidecar found, pass --length")
    bit_len = packets[0].source_len
    if bit_len % 8:
        raise ValueError(f"source length {bit_len} is not a whole number of bytes")
    chunk = bit_len // 8
    if total_len > spec.k * chunk:
        raise ValueError(f"{len_source} {total_len} exceeds decoded size {spec.k * chunk}")

    decoder = zigzag_decode if args.decoder == "zigzag" else map_decode
    sources = decoder(mat, packets)
    remaining = total_len
    with open(args.out, "wb") as fh:
        for s in sources:
            remaining -= fh.write(s.mask.to_bytes(chunk, "little")[:remaining])
    print(f"restored {total_len} bytes to {args.out}")
    return 0


def _summary(mat: GenMatrix) -> dict:
    # The one record analyze and matrix load print, in this key order.
    s, met = mat.spec, mat.metrics()
    return {"kind": s.kind, "K": s.k, "N": s.n, "m": s.m, "g": "0x" + s.g.to_hex(),
            "x": list(s.x) if s.x is not None else None,
            "l_max": met.l_max, "l_sum": met.l_sum, "alpha": met.alpha}


def _print_summary(summary: dict) -> None:
    pairs = [f"{key}={','.join(map(str, v)) if isinstance(v, list) else v}"
             for key, v in summary.items() if v is not None and key != "overheads"]
    print(" ".join(pairs[:-3]))  # the code: kind .. x
    print(" ".join(pairs[-3:]))  # its metrics: l_max l_sum alpha
    if "overheads" in summary:
        print("overheads: " + ",".join(map(str, summary["overheads"])))


def cmd_analyze(args) -> int:
    if args.compare:
        n = args.n if args.n is not None else 7
        ks = tuple(k for k in range(2, 7) if k <= n)
        print(emit_comparison(comparison_report(n, ks), args.format), end="")
        return 0
    mat = _resolve_matrix(args)
    summary = {**_summary(mat), "overheads": list(mat.column_overheads())}
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        _print_summary(summary)
    return 0


def cmd_classify(args) -> int:
    g = _resolve_g(args, args.n)
    report = enumerate_classes(args.k, args.n, g)
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(emit_report([report], "markdown"), end="")
    return 0


def cmd_check(args) -> int:
    mat = _resolve_matrix(args)
    ok, failing = mat.check_suboptimal()
    print(f"sub-optimal: {'true' if ok else 'false'}")
    for comb in failing:
        print("failing: " + ",".join(str(j) for j in comb))
    return 0 if ok else 1


def cmd_matrix_print(args) -> int:
    mat = _resolve_matrix(args)
    text = format_matrix(mat)
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
    else:
        print(text, end="")
    return 0


def cmd_matrix_load(args) -> int:
    _print_summary(_summary(load_matrix(args.file)))
    return 0


def _add_code_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=["sxor", "systematic", "zd3", "user"],
                   default="sxor", help="code construction (default: sxor)")
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
    p.add_argument("--decoder", choices=["map", "zigzag"], default="map")
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
