"""Field arithmetic: axioms, table integrity, vector ops, wire packing."""

from __future__ import annotations

import random

import numpy as np
import pytest

from mcnc.gf import (
    POLYNOMIALS,
    FieldMismatchError,
    FieldSpec,
    FieldSpecError,
    LengthMismatchError,
    SymbolVector,
    ZeroInverseError,
    _build_tables,
    gf_inv,
    gf_mul,
    pack_symbols,
    packed_size,
    unpack_symbols,
    vec_axpy,
)


def _axiom_triple(spec, a, b, c):
    mul = lambda x, y: gf_mul(spec, x, y)
    assert mul(a, b) == mul(b, a)
    assert mul(a, mul(b, c)) == mul(mul(a, b), c)
    # distributivity over the XOR addition
    assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)


@pytest.mark.parametrize("m", [1, 4])
def test_axioms_exhaustive_small_fields(m):
    spec = FieldSpec(m)
    q = spec.order
    for a in range(q):
        assert gf_mul(spec, a, 1) == a
        assert gf_mul(spec, a, 0) == 0
        for b in range(q):
            for c in range(q):
                _axiom_triple(spec, a, b, c)
    for a in range(1, q):
        assert gf_mul(spec, a, gf_inv(spec, a)) == 1


def test_axioms_random_triples_gf256():
    spec = FieldSpec(8)
    rng = random.Random(2024)
    for _ in range(10_000):
        a = rng.randrange(256)
        b = rng.randrange(256)
        c = rng.randrange(256)
        _axiom_triple(spec, a, b, c)
        assert gf_mul(spec, a, 1) == a and gf_mul(spec, a, 0) == 0
        if a:
            assert gf_mul(spec, a, gf_inv(spec, a)) == 1


def _mul_raw(a, b, m, poly):
    """Scalar reference product: shift-and-add, with the reduction folded
    into each shift so intermediate values never exceed m bits."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a & (1 << m):
            a ^= poly
        b >>= 1
    return acc


@pytest.mark.parametrize("m", [1, 4, 8])
def test_tables_match_the_scalar_reference(m):
    spec = FieldSpec(m)
    q = spec.order
    expected = [[_mul_raw(a, b, m, spec.poly) for b in range(q)] for a in range(q)]
    assert spec.mul_table.dtype == np.uint8 and spec.mul_table.shape == (q, q)
    assert spec.mul_table.tolist() == expected
    # the one b with a * b == 1, by the reference; zero maps to zero
    expected_inv = [0] + [expected[a].index(1) for a in range(1, q)]
    assert spec.inv_table.tolist() == expected_inv
    assert not spec.mul_table.flags.writeable and not spec.inv_table.flags.writeable


def test_tables_refuse_a_reducible_polynomial():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2: x^2 + x + 1 has no inverse
    with pytest.raises(FieldSpecError, match="0x15 does not define a field for m=4"):
        _build_tables(4, 0b10101)


def test_nonzero_rows_are_permutations():
    # multiplication by a nonzero symbol permutes the nonzero symbols
    for m in (1, 4, 8):
        spec = FieldSpec(m)
        nonzero = list(range(1, spec.order))
        for a in nonzero:
            row = sorted(int(x) for x in spec.mul_table[a][1:])
            assert row == nonzero


def test_known_products_gf16():
    spec = FieldSpec(4)
    # x * x^3 = x^4 = x + 1 under x^4 + x + 1
    assert gf_mul(spec, 0b0010, 0b1000) == 0b0011
    assert gf_mul(spec, 0b1000, 0b1000) == 0b1100  # x^6 = x^3 + x^2


def test_known_products_gf256():
    spec = FieldSpec(8)
    assert gf_mul(spec, 0x02, 0x80) == 0x1B  # x^8 reduces to the low bits of 0x11b
    assert gf_mul(spec, 0x53, 0xCA) == 0x01  # classic inverse pair
    assert gf_inv(spec, 0x53) == 0xCA


def test_field_spec_rejects_bad_parameters():
    with pytest.raises(FieldSpecError):
        FieldSpec(3)
    spec = FieldSpec(8)
    assert spec.poly == POLYNOMIALS[8]
    assert spec.order == 256


def test_zero_inverse_raises():
    for m in (1, 4, 8):
        with pytest.raises(ZeroInverseError):
            gf_inv(FieldSpec(m), 0)


def test_symbol_range_checked():
    spec = FieldSpec(4)
    with pytest.raises(ValueError):
        gf_mul(spec, 16, 1)
    with pytest.raises(ValueError):
        gf_mul(spec, 1, -1)


def test_vec_axpy_matches_scalar_reference():
    rng = random.Random(7)
    for m in (1, 4, 8):
        spec = FieldSpec(m)
        for _ in range(50):
            n = rng.randrange(1, 40)
            dst = np.array([rng.randrange(spec.order) for _ in range(n)], dtype=np.uint8)
            src = np.array([rng.randrange(spec.order) for _ in range(n)], dtype=np.uint8)
            c = rng.randrange(spec.order)
            expected = np.array(
                [d ^ gf_mul(spec, c, int(s)) for d, s in zip(dst, src)], dtype=np.uint8
            )
            vec_axpy(spec, dst, c, src)
            assert np.array_equal(dst, expected)


def test_vec_axpy_mismatches():
    spec = FieldSpec(4)
    other = FieldSpec(8)
    a = SymbolVector(spec, [1, 2, 3])
    b = SymbolVector(other, [1, 2, 3])
    with pytest.raises(FieldMismatchError):
        vec_axpy(spec, a, 1, b)
    with pytest.raises(LengthMismatchError):
        vec_axpy(spec, a, 1, SymbolVector(spec, [1, 2]))


def test_symbol_vector_pack_round_trip():
    rng = random.Random(99)
    for m, lengths in ((8, (1, 5, 256)), (4, (1, 2, 7, 33)), (1, (1, 8, 13, 64))):
        spec = FieldSpec(m)
        for n in lengths:
            symbols = [rng.randrange(spec.order) for _ in range(n)]
            vec = SymbolVector(spec, symbols)
            packed = vec.pack()
            assert len(packed) == packed_size(spec, n)
            back = SymbolVector.unpack(spec, packed, n)
            assert back == vec


def test_symbol_vector_packing_is_big_end_first():
    spec4 = FieldSpec(4)
    assert SymbolVector(spec4, [0xA, 0x3]).pack() == b"\xa3"
    spec1 = FieldSpec(1)
    assert SymbolVector(spec1, [1, 0, 0, 0, 0, 0, 0, 1]).pack() == b"\x81"


def test_symbol_vector_unpack_length_checked():
    spec = FieldSpec(4)
    with pytest.raises(LengthMismatchError):
        SymbolVector.unpack(spec, b"\x12\x34", 5)


def test_symbol_vector_rejects_out_of_range():
    with pytest.raises(ValueError):
        SymbolVector(FieldSpec(4), [3, 16])


@pytest.mark.parametrize("m", [1, 4, 8])
@pytest.mark.parametrize("form", [list, np.array], ids=["list", "array"])
def test_symbol_vector_range_checks_before_the_cast(m, form):
    # a uint8 cast would wrap these into range (256 -> 0, -1 -> 255,
    # 259 -> 3); each must be refused, from a list or an integer array
    spec = FieldSpec(m)
    for bad in (spec.order, spec.order + 3, 256, 259, -1, -256):
        with pytest.raises(ValueError, match="out of range"):
            SymbolVector(spec, form([0, 1, bad]))
    top = spec.order - 1
    vec = SymbolVector(spec, form([0, 1, top]))
    assert vec.symbols.dtype == np.uint8
    assert vec.symbols.tolist() == [0, 1, top]


@pytest.mark.parametrize(
    "symbols",
    [[1.5, 2.0], [-0.5], [1.0], np.array([3.0]), np.array(["a", "b"]), [None], [1j]],
    ids=["fraction", "negative-fraction", "whole-float", "float-array", "str", "object",
         "complex"],
)
def test_symbol_vector_rejects_non_integer_input(symbols):
    # a uint8 cast would truncate 1.5 to 1 and -0.5 to 0
    with pytest.raises(ValueError, match="not integers"):
        SymbolVector(FieldSpec(4), symbols)


def test_symbol_vector_takes_bool_and_every_integer_dtype():
    spec = FieldSpec(4)
    assert SymbolVector(spec, [True, False]).symbols.tolist() == [1, 0]
    for dtype in (np.int8, np.uint16, np.int64):
        assert SymbolVector(spec, np.array([0, 15], dtype=dtype)).symbols.tolist() == [0, 15]
    assert len(SymbolVector(spec, [])) == 0


def _reference_pack(m, symbols):
    """Big-end-first packing, one m-bit group per symbol, zero-filled."""
    bits = "".join(format(int(s), f"0{m}b") for s in symbols)
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


@pytest.mark.parametrize("m", [1, 4, 8])
def test_row_packing_matches_a_bitwise_reference(m):
    # pack_symbols and unpack_symbols work row-wise on 2-D arrays, also on
    # column slices of wider rows, strided or not
    spec = FieldSpec(m)
    rng = np.random.default_rng(m)
    wide = rng.integers(0, spec.order, size=(5, 48), dtype=np.uint8)
    for n in (1, 6, 7, 16, 21):
        for rows in (wide[:, :n], wide[:, ::2][:, :n]):
            packed = pack_symbols(spec, rows)
            assert packed.shape == (5, packed_size(spec, n))
            assert [r.tobytes() for r in packed] == [_reference_pack(m, r) for r in rows]
            assert np.array_equal(unpack_symbols(spec, packed, n), rows)


def test_symbol_vector_keeps_a_uint8_view():
    # the codec hands over views of its working buffers: no copy
    buf = np.arange(16, dtype=np.uint8)
    vec = SymbolVector(FieldSpec(8), buf[4:12])
    assert np.shares_memory(vec.symbols, buf)


def test_packed_size_values():
    assert packed_size(FieldSpec(8), 10) == 10
    assert packed_size(FieldSpec(4), 10) == 5
    assert packed_size(FieldSpec(4), 11) == 6
    assert packed_size(FieldSpec(1), 8) == 1
    assert packed_size(FieldSpec(1), 9) == 2


def test_table_sharing_between_instances():
    a = FieldSpec(8)
    b = FieldSpec(8)
    assert a.mul_table is b.mul_table
    assert a == b and hash(a) == hash(b)
    assert not a.mul_table.flags.writeable
