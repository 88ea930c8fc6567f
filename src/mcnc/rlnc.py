"""Random linear coding over generations of packets.

A generation holds k equal-size packet payloads. Coded packets carry a
coefficient vector drawn uniformly over the field plus the matching linear
combination of the payloads; any k packets with linearly independent
coefficients reconstruct the generation. Decoding is incremental
Gauss-Jordan elimination, the fully reduced form Kodo's decoders keep
(Pedersen, Heide and Fitzek, "Kodo: An Open and Research Oriented Network
Coding Library", 2011): with the pivot rows reduced against each other, an
arrival is reduced against all of them by one batched table gather, and
either yields a new pivot or is discarded as redundant. Payloads are kept as
received and solved for once, at extraction.

Payload arithmetic uses bit planes. Multiplying by a symbol c is
GF(2)-linear, so ``c * x`` is the XOR of ``2^b * x`` over the set bits b of
c. An encoder given payloads keeps the m planes ``2^b * payload_i`` of
every source row, each padded to whole 64-bit words: m * k * symbol_size
bytes (0.8 MB for k=100 GF(2^8) rows of 1000 symbols, 0.32 MB for k=40
GF(2^4) rows of 2000). A coded payload is then one XOR-reduce of the planes
its coefficient bits select. :meth:`DecoderState.extract` builds the same
planes of the received payloads and recovers each source payload by one
such XOR-reduce.

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
            bits = _coeff_bits(self.gen.field, np.array(coeffs, dtype=np.uint8))
            words = np.bitwise_xor.reduce(self._planes[bits], axis=0)
            payload = SymbolVector(self.gen.field, words.view(np.uint8)[: self.gen.symbol_size])
        return CodedPacket(self.gen.gen_id, coeffs, payload, seq, attempt)

    def burst(self, n: int, attempt: int = 0) -> List[CodedPacket]:
        return [self.next_packet(attempt) for _ in range(n)]


class DecoderState:
    """Incremental Gauss-Jordan elimination for one generation.

    Pivot rows are kept fully reduced: 1 in their own pivot column, 0 in
    every other one. The multipliers that reduce an arrival are then its own
    entries at the pivot columns, so one batched gather over all pivot rows
    reduces it, and one more clears a new pivot's column from the older
    rows. Each row sits in the slot of the packet that made it and holds
    three blocks:

    R  its coefficients (k wide).
    T  its echelon coordinates (k wide): its combination, indexed by pivot
       column, of the rows that forward elimination into echelon form would
       hold. The gather that reduces an arrival then also yields its echelon
       multipliers, so ``row_ops`` and ``last_consume_row_ops`` count the row
       operations echelon elimination performs: one per nonzero multiplier
       left of the arrival's new pivot (all of them if it is redundant) and
       one to normalize, at most rank+1 per consume.
    S  its raw-packet coordinates (k wide, payload decoders only): its
       combination of the innovative packets as they arrived.

    Besides its own 1, R is nonzero only in free (non-pivot) columns and T
    only in pivot columns, so R + T is stored in one set of k columns, where
    the row's own pivot reads 0.

    Payloads are not reduced on arrival: each innovative one is kept as
    received. At full rank R is a permutation of the identity, so
    :meth:`extract` recovers source packet i as the combination of the raw
    payloads that S gives the row with pivot i. Nothing is back-substituted,
    and a second call returns the same bytes.

    Memory: k rows of 2k coefficient bytes (k without payloads) plus the k
    raw payloads, padded to 64-bit words: 20 kB and 100 kB for k=100
    GF(2^8) rows of 1000 symbols. ``extract`` adds the m bit planes of the
    raw payloads, m * k * symbol_size bytes (0.8 MB there), for the length
    of the call.
    """

    __slots__ = ("gen", "k", "field", "rank", "row_ops", "last_consume_row_ops",
                 "_rows", "_leads", "_free", "_raw")

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
        # R + T in the first k columns, then S
        self._rows = np.zeros((gen.k, (2 if track_payloads else 1) * gen.k), dtype=np.uint8)
        self._leads = np.zeros(gen.k, dtype=np.intp)  # pivot column of each slot
        self._free = np.ones(gen.k, dtype=bool)  # False at pivot columns
        self._raw = _word_rows(gen.k, gen.symbol_size) if track_payloads else None

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
        if self._raw is None:
            return self.consume_coeffs(packet.coeffs)
        if packet.payload is None:
            raise LengthMismatchError("decoder tracks payloads, packet has none")
        if packet.payload.field != self.field:
            raise GenerationMismatchError("payload field mismatch")
        size = self.gen.symbol_size
        if len(packet.payload) != size:
            raise LengthMismatchError(
                f"payload of {len(packet.payload)} symbols, expected {size}"
            )
        slot = self.rank
        if self._eliminate(np.array(packet.coeffs, dtype=np.uint8)):
            self._raw[slot, :size] = packet.payload.symbols
            return 1
        return 0

    def consume_coeffs(self, coeffs: Sequence[int]) -> int:
        """Consume a bare coefficient vector (decoders tracking no payloads)."""
        if len(coeffs) != self.k:
            raise LengthMismatchError(f"{len(coeffs)} coefficients for k={self.k}")
        if self._raw is not None:
            raise ValueError("decoder tracks payloads; feed full packets")
        return self._eliminate(np.array(coeffs, dtype=np.uint8))

    def _eliminate(self, v: np.ndarray) -> int:
        """Reduce coefficient vector ``v`` against the pivot rows; keep it in
        the next slot if innovative."""
        k, rank, mul = self.k, self.rank, self.field.mul_table
        rows = self._rows[:, : k + rank + 1]  # S is still zero past this rank
        u = v[self._leads[:rank]]
        if np.count_nonzero(u):
            red = np.bitwise_xor.reduce(_gather(mul, u, rows[:rank]), axis=0)
            red[:k] ^= v
        else:
            red = np.zeros(rows.shape[1], dtype=np.uint8)
            red[:k] = v
        # red[:k] holds the residual in the free columns and the echelon
        # multipliers in the pivot columns; red[k:] the raw-packet form of
        # v's part in the span
        nz = red[:k].nonzero()[0]
        residual = self._free[nz].nonzero()[0]  # where in nz the free columns are
        if not residual.size:
            ops = len(nz)
            self.row_ops += ops
            self.last_consume_row_ops = ops
            return 0
        # Echelon elimination would stop at the residual's lead column after
        # one row operation per nonzero multiplier left of it (the entries
        # of nz before the lead), plus one to normalize. Right of the lead, red is c times the new row: the
        # residual in R, the multipliers right of the lead in T (its own
        # pivot reads 0 in R + T), and in S once v itself joins as a packet.
        first = int(residual[0])
        lead = int(nz[first])
        c = int(red[lead])
        ops = first + (c != 1)
        red[: lead + 1] = 0
        if self._raw is not None:
            red[k + rank] = 1
        new = rows[rank]
        mul[self.field.inv_table[c]].take(red, out=new)
        # clear the new pivot column from the older rows; their entry there
        # turns from an R entry into the same T entry
        f = rows[:rank, lead]
        if np.count_nonzero(f):
            rows[:rank] ^= _gather(mul, f, new)
        self._free[lead] = False
        self._leads[rank] = lead
        self.rank = rank + 1
        self.row_ops += ops
        self.last_consume_row_ops = ops
        return 1

    def extract(self) -> List[bytes]:
        """Solve for the k source payloads and return them, padding removed."""
        if self.rank < self.k:
            raise RankDeficientError(self.rank, self.k)
        if self._raw is None:
            raise ValueError("decoder holds no payload symbols")
        field, k, size = self.field, self.k, self.gen.symbol_size
        planes = _planes(field, self._raw).view(np.uint64)
        bits = _coeff_bits(field, self._rows[:, k : 2 * k])
        out = [b""] * k
        for slot, lead in enumerate(self._leads.tolist()):
            words = np.bitwise_xor.reduce(planes[bits[slot]], axis=0)
            out[lead] = SymbolVector(field, words.view(np.uint8)[:size]).pack()
        full = packed_size(field, size)
        tail = self.gen.payload_bytes - (k - 1) * full
        out[-1] = out[-1][:tail]
        return out


def _gather(mul: np.ndarray, c: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``c[i] * rows[i]`` for every i: one lookup in the flattened product
    table, whose entry ``a << m | b`` is a * b."""
    m = len(mul).bit_length() - 1
    return mul.take((c.astype(np.uint16) << m)[:, None] | rows)


def _coeff_bits(field: FieldSpec, coeffs: np.ndarray) -> np.ndarray:
    """Bit b of every symbol, on a new last axis of length m (as bool)."""
    bits = np.unpackbits(coeffs[..., None], axis=-1, bitorder="little")
    return bits[..., : field.m].view(bool)


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
