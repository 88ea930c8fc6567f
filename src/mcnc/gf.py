"""Arithmetic over the binary extension fields GF(2^m) for m in {1, 4, 8}.

Symbols are small ints in [0, 2^m). Addition is XOR. Multiplication is
carry-less polynomial multiplication reduced by a fixed irreducible
polynomial per field size:

    m = 1   x + 1               0b11
    m = 4   x^4 + x + 1         0b10011
    m = 8   x^8 + x^4 + x^3 + x + 1   0x11b

Only these (m, poly) pairs are accepted. Multiplication and inversion go
through precomputed tables; the tables are built once per field size and
shared between FieldSpec instances. Multiplication by a symbol is linear
over GF(2), so the product table is built by whole rows: row 2^i, every
symbol times x^i, is row 2^(i-1) doubled, one shift-and-reduce over a
vector of all q symbols, and any other row a is the XOR of the rows of a's
lowest set bit and of the rest of a. The inverse of a is the one column
where row a holds 1; a row with no such column, or more, means ``poly`` is
reducible.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np


#: Allowed reduction polynomials, by extension degree.
POLYNOMIALS: Dict[int, int] = {
    1: 0b11,
    4: 0b10011,
    8: 0x11B,
}

#: Symbols packed per byte, by extension degree.
_PER_BYTE = {1: 8, 4: 2, 8: 1}


class FieldSpecError(ValueError):
    """Raised for an (m, poly) pair outside the allowed table."""


class ZeroInverseError(ZeroDivisionError):
    """Raised when inverting the zero symbol."""


class LengthMismatchError(ValueError):
    """Raised when two symbol vectors of different lengths are combined."""


class FieldMismatchError(ValueError):
    """Raised when operands belong to different fields."""


def _build_tables(m: int, poly: int) -> Tuple[np.ndarray, np.ndarray]:
    q = 1 << m
    mul = np.zeros((q, q), dtype=np.uint8)
    # row 2^i: every symbol times x^i, by one doubling per step: shift
    # left within the field's bits, and where the top bit fell out, add
    # the reduction polynomial's low bits
    top = q - 1
    x = np.arange(q, dtype=np.uint8)
    for i in range(m):
        mul[1 << i] = x
        x = ((x << 1) & top) ^ ((x >> (m - 1)) * (poly & top))
    # multiplication is linear, so row a is the row of its lowest set bit
    # XOR the row of the rest, both already built
    for a in range(3, q):
        low = a & -a
        if low != a:
            np.bitwise_xor(mul[low], mul[a ^ low], out=mul[a])
    inv = np.zeros(q, dtype=np.uint8)
    for a in range(1, q):
        hits = np.nonzero(mul[a] == 1)[0]
        if len(hits) != 1:
            raise FieldSpecError(f"0x{poly:x} does not define a field for m={m}")
        inv[a] = hits[0]
    mul.setflags(write=False)
    inv.setflags(write=False)
    return mul, inv


_TABLE_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


class FieldSpec:
    """A concrete field GF(2^m), with its multiplication and inverse tables."""

    __slots__ = ("m", "poly", "order", "mul_table", "inv_table")

    def __init__(self, m: int):
        if m not in POLYNOMIALS:
            raise FieldSpecError(f"unsupported extension degree m={m}")
        self.m = m
        self.poly = POLYNOMIALS[m]
        self.order = 1 << m
        if m not in _TABLE_CACHE:
            _TABLE_CACHE[m] = _build_tables(m, self.poly)
        self.mul_table, self.inv_table = _TABLE_CACHE[m]

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and other.m == self.m

    def __hash__(self):
        return hash(("FieldSpec", self.m))

    def __repr__(self):
        return f"FieldSpec(m={self.m}, poly=0x{self.poly:x})"


def _check_symbol(spec: FieldSpec, value: int, name: str) -> None:
    if not 0 <= value < spec.order:
        raise ValueError(f"{name}={value!r} outside GF(2^{spec.m})")


def gf_mul(spec: FieldSpec, a: int, b: int) -> int:
    """Product of two symbols."""
    _check_symbol(spec, a, "a")
    _check_symbol(spec, b, "b")
    return int(spec.mul_table[a, b])


def gf_inv(spec: FieldSpec, a: int) -> int:
    """Multiplicative inverse of a nonzero symbol."""
    _check_symbol(spec, a, "a")
    if a == 0:
        raise ZeroInverseError("zero has no multiplicative inverse")
    return int(spec.inv_table[a])


def vec_axpy(spec: FieldSpec, dst, c: int, src) -> None:
    """In-place fused update ``dst[i] ^= c * src[i]``.

    ``dst`` and ``src`` may be numpy uint8 arrays of symbols or
    :class:`SymbolVector` instances. ``dst`` is modified in place.
    """
    if isinstance(dst, SymbolVector):
        if isinstance(src, SymbolVector) and src.field != dst.field:
            raise FieldMismatchError("operands from different fields")
        if dst.field != spec:
            raise FieldMismatchError("dst does not belong to spec's field")
        dst = dst.symbols
    if isinstance(src, SymbolVector):
        if src.field != spec:
            raise FieldMismatchError("src does not belong to spec's field")
        src = src.symbols
    _check_symbol(spec, c, "c")
    if len(dst) != len(src):
        raise LengthMismatchError(f"len(dst)={len(dst)} != len(src)={len(src)}")
    if c == 0:
        return
    np.bitwise_xor(dst, spec.mul_table[c].take(src), out=dst)


class SymbolVector:
    """A vector of field symbols with a defined wire packing.

    For m=8 each symbol is one byte and for m=1 eight symbols pack per byte;
    for m=4 two symbols pack per byte. Packing is big-end first: the first
    symbol lands in the high nibble (m=4) or the most significant bit (m=1).
    """

    __slots__ = ("field", "symbols")

    def __init__(self, field: FieldSpec, symbols):
        arr = np.asarray(symbols)  # a uint8 array is kept as is, not copied
        if arr.ndim != 1:
            raise ValueError("symbol vectors are one-dimensional")
        # the uint8 cast would truncate 1.5 to 1 and -0.5 to 0; an empty
        # list comes in as float64 but holds nothing to truncate
        if arr.dtype.kind not in "biu" and arr.size:
            raise ValueError(f"symbols of dtype {arr.dtype} are not integers")
        # range-check before the cast to uint8, which would wrap 256 to 0
        # and -1 to 255
        if arr.size and (int(arr.max()) >= field.order
                         or (arr.dtype != np.uint8 and int(arr.min()) < 0)):
            raise ValueError(f"symbol out of range for GF(2^{field.m})")
        if arr.dtype != np.uint8:
            arr = arr.astype(np.uint8)
        self.field = field
        self.symbols = arr

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return (
            isinstance(other, SymbolVector)
            and other.field == self.field
            and len(other.symbols) == len(self.symbols)
            and bool(np.all(other.symbols == self.symbols))
        )

    def __repr__(self):
        return f"SymbolVector(m={self.field.m}, n={len(self.symbols)})"

    def pack(self) -> bytes:
        return pack_symbols(self.field, self.symbols).tobytes()

    @classmethod
    def unpack(cls, field: FieldSpec, data: bytes, n_symbols: int) -> "SymbolVector":
        if packed_size(field, n_symbols) != len(data):
            raise LengthMismatchError(
                f"{len(data)} bytes cannot hold {n_symbols} symbols of GF(2^{field.m})"
            )
        symbols = unpack_symbols(field, np.frombuffer(data, dtype=np.uint8), n_symbols)
        return cls._of(field, symbols if field.m != 8 else symbols.copy())

    def split(self, n: int) -> List["SymbolVector"]:
        """The vector cut into n equal consecutive parts. Each part is a view
        of this one's symbols, already in range, so none is checked again."""
        return [self._of(self.field, row) for row in self.symbols.reshape(n, -1)]

    @classmethod
    def _of(cls, field: FieldSpec, symbols: np.ndarray) -> "SymbolVector":
        out = cls.__new__(cls)
        out.field = field
        out.symbols = symbols
        return out


def pack_symbols(spec: FieldSpec, symbols: np.ndarray) -> np.ndarray:
    """Wire packing (see :class:`SymbolVector`) along the last axis of a
    uint8 symbol array of any shape; a sub-byte tail pads with zeros."""
    if spec.m == 8:
        return symbols
    if spec.m == 4:
        if symbols.shape[-1] % 2 or symbols.strides[-1] != 1:
            # one contiguous copy, a zero symbol appended if the count is odd
            pad = np.zeros(symbols.shape[:-1] + (symbols.shape[-1] % 2,), dtype=np.uint8)
            symbols = np.concatenate((symbols, pad), axis=-1)
        pairs = symbols.view("<u2")  # symbols a, b read as a | b << 8
        return ((pairs << 4) | (pairs >> 8)).astype(np.uint8)
    return np.packbits(symbols, axis=-1)


def unpack_symbols(spec: FieldSpec, raw: np.ndarray, n_symbols: int) -> np.ndarray:
    """Inverse of :func:`pack_symbols`: the first ``n_symbols`` symbols along
    the last axis of a packed uint8 array, a view of ``raw`` for m=8."""
    if spec.m == 8:
        return raw[..., :n_symbols]
    if spec.m == 4:
        pairs = raw.astype("<u2")  # byte hi << 4 | lo
        pairs |= pairs << 12
        pairs >>= 4  # now hi | lo << 8: the symbols hi, lo in memory order
        return pairs.view(np.uint8)[..., :n_symbols]
    return np.unpackbits(raw, axis=-1)[..., :n_symbols]


def packed_size(spec: FieldSpec, n_symbols: int) -> int:
    """Bytes needed to carry ``n_symbols`` symbols on the wire."""
    per = _PER_BYTE[spec.m]
    return (n_symbols + per - 1) // per
