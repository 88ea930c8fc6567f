"""Random linear coding over generations of packets.

A generation holds k equal-size packet payloads. Coded packets carry a
coefficient vector drawn uniformly over the field plus the matching linear
combination of the payloads; any k packets with linearly independent
coefficients reconstruct the generation. Decoding is incremental Gaussian
elimination: each arrival is reduced against the pivot rows already held
(one pass, at most rank+1 row operations) and either yields a new pivot or
is discarded as redundant.

Payload arithmetic uses bit planes. Multiplying by a symbol c is
GF(2)-linear, so ``c * x`` is the XOR of ``2^b * x`` over the set bits b of
c. An encoder given payloads keeps the m planes ``2^b * payload_i`` of
every source row, each padded to whole 64-bit words: m * k * symbol_size
bytes (0.8 MB for k=100 GF(2^8) rows of 1000 symbols, 0.32 MB for k=40
GF(2^4) rows of 2000). A coded payload is then one XOR-reduce of the planes
its coefficient bits select, and :meth:`DecoderState.extract` clears each
column of the back-substitution with at most m batched XORs.

Coefficient draw modes
    guarded       redraw until the vector is innovative versus everything
                  this encoder already emitted, while rank allows; the
                  first k emissions are then linearly independent, so a
                  loss-free delivery of a redundancy-free burst always
                  decodes. Emissions past rank k fall back to nonzero
                  draws (all-zero vectors redrawn). This is the
                  transmit-side default.
    unrestricted  raw uniform draws, zero vector included. Matches the
                  closed form in :func:`full_rank_probability`; used by the
                  statistical tests.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .gf import (
    FieldSpec,
    LengthMismatchError,
    SymbolVector,
    _PER_BYTE,
    gf_inv,
    packed_size,
)
from .seeding import derive_seed

WIRE_HEADER = struct.Struct(">IHHB")  # gen_id, k, seq, attempt


class EmptyGenerationError(ValueError):
    """Raised when building a generation with no payload data."""


class GenerationMismatchError(ValueError):
    """Raised when a packet is fed to a decoder for a different generation."""


class RankDeficientError(RuntimeError):
    """Raised when extracting from a decoder that has not reached full rank."""

    def __init__(self, rank: int, k: int):
        super().__init__(f"rank {rank} of {k}")
        self.rank = rank
        self.k = k


def symbols_per_packet(field: FieldSpec, packet_bytes: int) -> int:
    return packet_bytes * _PER_BYTE[field.m]


class Generation:
    """k source payloads plus the metadata needed to undo padding.

    ``payloads`` may be None for rate-and-rank bookkeeping without payload
    arithmetic; the codec tests carry real bytes.
    """

    __slots__ = (
        "gen_id",
        "field",
        "k",
        "symbol_size",
        "payloads",
        "payload_bytes",
    )

    def __init__(
        self,
        gen_id: int,
        field: FieldSpec,
        k: int,
        symbol_size: int,
        payloads: Optional[List[SymbolVector]] = None,
        payload_bytes: Optional[int] = None,
    ):
        if k < 1:
            raise EmptyGenerationError("generation needs at least one packet")
        if symbol_size < 1:
            raise ValueError("symbol_size must be positive")
        if payloads is not None:
            if len(payloads) != k:
                raise ValueError(f"expected {k} payloads, got {len(payloads)}")
            for p in payloads:
                if p.field != field:
                    raise ValueError("payload field does not match generation")
                if len(p) != symbol_size:
                    raise ValueError("payloads must all have symbol_size symbols")
        full = packed_size(field, symbol_size)
        if payload_bytes is None:
            payload_bytes = k * full
        if not (k - 1) * full < payload_bytes <= k * full:
            raise ValueError("payload_bytes inconsistent with k packets")
        self.gen_id = gen_id
        self.field = field
        self.k = k
        self.symbol_size = symbol_size
        self.payloads = payloads
        self.payload_bytes = payload_bytes

    @classmethod
    def from_block(
        cls,
        gen_id: int,
        field: FieldSpec,
        data: bytes,
        packet_bytes: int,
    ) -> "Generation":
        """Split a byte block into one generation, zero-padding the tail."""
        if not data:
            raise EmptyGenerationError("no payload data")
        k = -(-len(data) // packet_bytes)
        size = symbols_per_packet(field, packet_bytes)
        payloads = []
        for i in range(k):
            chunk = data[i * packet_bytes : (i + 1) * packet_bytes]
            chunk = chunk.ljust(packet_bytes, b"\x00")
            payloads.append(SymbolVector.unpack(field, chunk, size))
        return cls(gen_id, field, k, size, payloads, len(data))


def split_counts(n_packets: int, k_max: int) -> List[int]:
    """Packet counts per generation for a block of n_packets, capped at k_max."""
    if n_packets < 1:
        raise EmptyGenerationError("no packets to split")
    counts = [k_max] * (n_packets // k_max)
    if n_packets % k_max:
        counts.append(n_packets % k_max)
    return counts


def split_block(
    first_gen_id: int,
    field: FieldSpec,
    data: bytes,
    packet_bytes: int,
    k_max: int,
) -> List[Generation]:
    """Split a byte block into as many generations as the k cap requires."""
    if not data:
        raise EmptyGenerationError("no payload data")
    n_packets = -(-len(data) // packet_bytes)
    gens = []
    offset = 0
    for i, k in enumerate(split_counts(n_packets, k_max)):
        chunk = data[offset : offset + k * packet_bytes]
        gens.append(Generation.from_block(first_gen_id + i, field, chunk, packet_bytes))
        offset += k * packet_bytes
    return gens


@dataclass(frozen=True)
class CodedPacket:
    gen_id: int
    coeffs: Tuple[int, ...]
    payload: Optional[SymbolVector]
    seq: int
    attempt: int = 0


class Encoder:
    """Rateless packet source for one generation.

    Deterministic: the emission sequence is a pure function of
    (seed, gen_id, mode), so two encoders built alike emit identical
    packets regardless of when or in what bursts they are asked.
    """

    def __init__(self, gen: Generation, seed: int, mode: str = "guarded"):
        if mode not in ("guarded", "unrestricted"):
            raise ValueError(f"unknown draw mode {mode!r}")
        self.gen = gen
        self.seed = seed
        self.mode = mode
        self.seq = 0
        self._rng = random.Random(derive_seed(seed, "enc", gen.gen_id))
        self._emitted = DecoderState(gen, track_payloads=False) if mode == "guarded" else None
        if gen.payloads is not None:
            matrix = _word_rows(gen.k, gen.symbol_size)
            for row, p in zip(matrix, gen.payloads):
                row[: gen.symbol_size] = p.symbols
            self._planes = _planes(gen.field, matrix).view(np.uint64)
        else:
            self._planes = None

    def next_coeffs(self) -> Tuple[int, ...]:
        """Coefficient vector of the next emission; advances the sequence."""
        k, m, rng, emitted = self.gen.k, self.gen.field.m, self._rng, self._emitted
        while True:
            coeffs = tuple(rng.getrandbits(m) for _ in range(k))
            if emitted is None:
                break
            if any(coeffs) and (emitted.rank >= k or emitted.consume_coeffs(coeffs)):
                break
        self.seq += 1
        return coeffs

    def coeff_burst(self, n: int) -> List[Tuple[int, ...]]:
        """n coefficient vectors without packet objects (bookkeeping path)."""
        return [self.next_coeffs() for _ in range(n)]

    def next_packet(self, attempt: int = 0) -> CodedPacket:
        seq = self.seq
        coeffs = self.next_coeffs()
        payload = None
        if self._planes is not None:
            # one XOR-reduce of the planes the coefficient bits select
            c = np.array(coeffs, dtype=np.uint8)[:, None]
            bits = np.unpackbits(c, axis=1, bitorder="little")[:, : self.gen.field.m]
            words = np.bitwise_xor.reduce(self._planes[bits.view(bool)], axis=0)
            payload = SymbolVector(self.gen.field, words.view(np.uint8)[: self.gen.symbol_size])
        return CodedPacket(self.gen.gen_id, coeffs, payload, seq, attempt)

    def burst(self, n: int, attempt: int = 0) -> List[CodedPacket]:
        return [self.next_packet(attempt) for _ in range(n)]


class DecoderState:
    """Incremental Gaussian elimination for one generation.

    Pivot rows are kept normalized (leading coefficient 1). Payload symbols,
    when tracked, are fused onto the coefficient rows so each elimination is
    a single table-lookup-and-xor pass. ``row_ops`` counts row operations
    for the cost assertion: each consume performs at most rank+1 of them.

    :meth:`extract` back-substitutes on a copy of the k pivot payloads padded
    to 64-bit words (k * symbol_size bytes). Per column it builds the m bit
    planes of that pivot's payload (m * symbol_size bytes, freed at once) and
    XORs plane b into every row above whose entry has bit b set.
    """

    __slots__ = ("gen", "k", "field", "rank", "row_ops", "last_consume_row_ops",
                 "_rows", "_payloads")

    def __init__(self, gen: Generation, track_payloads: Optional[bool] = None):
        if track_payloads is None:
            track_payloads = gen.payloads is not None
        if track_payloads and gen.payloads is None:
            raise ValueError("generation carries no payloads to track")
        self.gen = gen
        self.k = gen.k
        self.field = gen.field
        self.rank = 0
        self.row_ops = 0
        self.last_consume_row_ops = 0
        self._rows = {}
        self._payloads = track_payloads

    @property
    def delivered(self) -> bool:
        return self.rank == self.k

    def consume(self, packet: CodedPacket) -> int:
        if packet.gen_id != self.gen.gen_id:
            raise GenerationMismatchError(
                f"packet for generation {packet.gen_id}, decoder holds {self.gen.gen_id}"
            )
        if len(packet.coeffs) != self.k:
            raise LengthMismatchError(
                f"{len(packet.coeffs)} coefficients for k={self.k}"
            )
        if self._payloads:
            if packet.payload is None:
                raise LengthMismatchError("decoder tracks payloads, packet has none")
            if packet.payload.field != self.field:
                raise GenerationMismatchError("payload field mismatch")
            if len(packet.payload) != self.gen.symbol_size:
                raise LengthMismatchError(
                    f"payload of {len(packet.payload)} symbols, expected {self.gen.symbol_size}"
                )
            row = np.empty(self.k + self.gen.symbol_size, dtype=np.uint8)
            row[: self.k] = packet.coeffs
            row[self.k :] = packet.payload.symbols
            return self._eliminate(row)
        return self.consume_coeffs(packet.coeffs)

    def consume_coeffs(self, coeffs: Sequence[int]) -> int:
        """Consume a bare coefficient vector (decoders tracking no payloads)."""
        if len(coeffs) != self.k:
            raise LengthMismatchError(f"{len(coeffs)} coefficients for k={self.k}")
        if self._payloads:
            raise ValueError("decoder tracks payloads; feed full packets")
        return self._eliminate(np.array(coeffs, dtype=np.uint8))

    def _eliminate(self, row: np.ndarray) -> int:
        """Reduce ``row`` (coefficients, then any payload symbols) in place
        against the pivots; keep it as a new pivot if innovative."""
        ops = 0
        mul = self.field.mul_table
        rows = self._rows
        k = self.k
        for col in range(k):
            c = int(row[col])
            if not c:
                continue
            pivot = rows.get(col)
            if pivot is None:
                if c != 1:
                    np.take(mul[gf_inv(self.field, c)], row, out=row)
                    ops += 1
                rows[col] = row
                self.rank += 1
                self.row_ops += ops
                self.last_consume_row_ops = ops
                return 1
            np.bitwise_xor(row, mul[c].take(pivot), out=row)
            ops += 1
        self.row_ops += ops
        self.last_consume_row_ops = ops
        return 0

    def extract(self) -> List[bytes]:
        """Back-substitute and return the k source payloads, padding removed."""
        if self.rank < self.k:
            raise RankDeficientError(self.rank, self.k)
        if not self._payloads:
            raise ValueError("decoder holds no payload symbols")
        field, k, size = self.field, self.k, self.gen.symbol_size
        pivots = [self._rows[col] for col in range(k)]
        coeffs = np.stack([row[:k] for row in pivots])
        payloads = _word_rows(k, size)
        for dst, row in zip(payloads, pivots):
            dst[:size] = row[k:]
        words = payloads.view(np.uint64)
        # The pivot rows form a unit upper-triangular system. Clear column
        # col from every row above it, last column first: row col is final
        # by then, and each bit b of its multipliers is one batched XOR of
        # plane b into the rows whose entry has that bit set.
        for col in range(k - 1, 0, -1):
            c = coeffs[:col, col]
            if not c.any():
                continue
            planes = _planes(field, payloads[col]).view(np.uint64)
            for b, plane in enumerate(planes):
                targets = np.flatnonzero(c & (1 << b))
                if targets.size:
                    words[targets] ^= plane
        full = packed_size(field, size)
        out = [SymbolVector(field, row[:size]).pack() for row in payloads]
        tail = self.gen.payload_bytes - (k - 1) * full
        out[-1] = out[-1][:tail]
        return out


def _word_rows(n: int, size: int) -> np.ndarray:
    """n zeroed rows of ``size`` symbols, each padded to whole 64-bit words."""
    return np.zeros((n, -(-size // 8) * 8), dtype=np.uint8)


def _planes(field: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """Bit planes ``2^b * rows`` for b in 0..m-1, on a new axis before the last.

    Multiplication by a symbol c is GF(2)-linear, so ``c * x`` is the XOR
    of the planes of x picked out by the set bits of c.
    """
    mul = field.mul_table
    return np.stack([mul[1 << b].take(rows) for b in range(field.m)], axis=-2)


def serialize(packet: CodedPacket, field: FieldSpec) -> bytes:
    """Wire form: gen_id(4) | k(2) | seq(2) | attempt(1) | coeffs | payload.

    ``seq`` goes out modulo 2^16; the decoder never reads it.
    """
    if packet.payload is None:
        raise ValueError("cannot serialize a packet without payload symbols")
    coeffs = SymbolVector(field, packet.coeffs)
    return b"".join(
        (
            WIRE_HEADER.pack(
                packet.gen_id, len(packet.coeffs), packet.seq & 0xFFFF, packet.attempt
            ),
            coeffs.pack(),
            packet.payload.pack(),
        )
    )


def deserialize(
    data: bytes, field: FieldSpec, symbol_size: Optional[int] = None
) -> CodedPacket:
    """Inverse of :func:`serialize`.

    symbol_size may be omitted when every byte of the payload section is
    fully occupied (always true for byte-aligned packet sizes); pass it
    explicitly for odd symbol counts in sub-byte fields.
    """
    if len(data) < WIRE_HEADER.size:
        raise LengthMismatchError("short packet header")
    gen_id, k, seq, attempt = WIRE_HEADER.unpack_from(data)
    coeff_bytes = packed_size(field, k)
    body = data[WIRE_HEADER.size :]
    if len(body) < coeff_bytes:
        raise LengthMismatchError("truncated coefficient block")
    coeffs = SymbolVector.unpack(field, body[:coeff_bytes], k)
    payload_raw = body[coeff_bytes:]
    if symbol_size is None:
        symbol_size = len(payload_raw) * _PER_BYTE[field.m]
    payload = SymbolVector.unpack(field, payload_raw, symbol_size)
    return CodedPacket(gen_id, tuple(int(c) for c in coeffs.symbols), payload, seq, attempt)


def wire_size(field: FieldSpec, k: int, payload_bytes: int) -> int:
    """Serialized size of a coded packet carrying payload_bytes of data."""
    return WIRE_HEADER.size + packed_size(field, k) + payload_bytes


def full_rank_probability(k: int, q: int, n: int) -> float:
    """Probability that n i.i.d. uniform coefficient vectors span GF(q)^k.

    Models unrestricted draws (the all-zero vector included), matching the
    encoder's "unrestricted" mode:  prod_{i=0..k-1} (1 - q^-(n-i)).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if q < 2:
        raise ValueError("q must be at least 2")
    if n < k:
        raise ValueError(f"n={n} cannot reach rank k={k}")
    p = 1.0
    for i in range(k):
        p *= 1.0 - float(q) ** -(n - i)
    return p
