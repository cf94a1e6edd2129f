"""The names ``from sxor import *`` binds: a name joins or leaves on purpose."""

import sxor

PUBLIC = [
    "ClassReport", "CodeClass", "CodeSpec", "DEFAULT_MODULI", "FieldCtx", "FieldElem",
    "FieldMatrix", "GenMatrix", "InconsistentDivision", "MapKernel", "MatrixFormatError",
    "Metrics", "NotMonomialMatrix", "Packet", "PacketFormatError", "Poly2", "PolyMatrix",
    "Singular", "SingularSubmatrix", "TrailingBits", "ZD_N7_REFERENCE", "ZigzagStuck",
    "__version__", "best_systematic", "build_sxor", "build_systematic_sxor", "builtin_zd_k3",
    "cancel_common_factor", "comparison_report", "default_modulus", "emit_comparison",
    "emit_report", "encode", "encode_xor_count", "enumerate_classes", "exact_div_low",
    "format_fields", "format_matrix", "is_primitive", "load_matrix", "map_decode", "map_kernel",
    "matrices_equivalent", "matrix_for_spec", "packet_from_bytes", "packet_to_bytes",
    "parse_fields", "parse_matrix", "read_packet", "save_matrix", "shift_sequence",
    "split_shift", "user_matrix", "vandermonde", "write_packet", "zigzag_decode",
    "zigzag_schedule",
]


def test_public_names_are_pinned():
    assert sorted(sxor.__all__) == PUBLIC
    assert len(PUBLIC) == 57
    for name in PUBLIC:
        assert hasattr(sxor, name), name
