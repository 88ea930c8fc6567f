"""Codec behaviour: generations, draw modes, incremental decoding, wire form."""

from __future__ import annotations

import random

import numpy as np
import pytest

from mcnc.gf import FieldSpec, LengthMismatchError, SymbolVector, gf_inv, vec_axpy
from mcnc.rlnc import (
    CodedPacket,
    DecoderState,
    EmptyGenerationError,
    Encoder,
    Generation,
    GenerationMismatchError,
    RankDeficientError,
    WIRE_HEADER,
    deserialize,
    full_rank_probability,
    serialize,
    split_block,
    split_counts,
    symbols_per_packet,
    wire_size,
)

GF16 = FieldSpec(4)
GF256 = FieldSpec(8)


def _random_generation(rng, field, k, packet_bytes=32, gen_id=0):
    data = rng.randbytes(k * packet_bytes - rng.randrange(packet_bytes))
    return Generation.from_block(gen_id, field, data, packet_bytes), data


# -- generation construction -------------------------------------------


def test_from_block_pads_and_remembers_length():
    gen = Generation.from_block(3, GF256, b"\x01" * 70, 32)
    assert gen.k == 3
    assert gen.payload_bytes == 70
    assert len(gen.payloads[2]) == 32
    assert bytes(gen.payloads[2].symbols[6:]) == b"\x00" * 26


def test_empty_generation_rejected():
    with pytest.raises(EmptyGenerationError):
        Generation.from_block(0, GF256, b"", 32)
    with pytest.raises(EmptyGenerationError):
        split_counts(0, 40)


def test_split_counts():
    assert split_counts(103, 40) == [40, 40, 23]
    assert split_counts(40, 40) == [40]
    assert split_counts(1, 40) == [1]
    assert split_counts(80, 40) == [40, 40]


def test_split_block_covers_data_exactly():
    rng = random.Random(5)
    data = rng.randbytes(103 * 10 - 4)
    gens = split_block(100, GF256, data, 10, 40)
    assert [g.k for g in gens] == [40, 40, 23]
    assert [g.gen_id for g in gens] == [100, 101, 102]
    assert sum(g.payload_bytes for g in gens) == len(data)


def test_symbols_per_packet():
    assert symbols_per_packet(GF256, 1000) == 1000
    assert symbols_per_packet(GF16, 1000) == 2000
    assert symbols_per_packet(FieldSpec(1), 125) == 1000


# -- encoding ----------------------------------------------------------


def test_encoder_is_deterministic():
    rng = random.Random(11)
    gen, _ = _random_generation(rng, GF16, 5)
    a = Encoder(gen, seed=42, mode="guarded")
    b = Encoder(gen, seed=42, mode="guarded")
    pk_a = a.burst(12)
    # asking in different burst sizes must not change the emission sequence
    pk_b = b.burst(5) + b.burst(7)
    assert [p.coeffs for p in pk_a] == [p.coeffs for p in pk_b]
    c = Encoder(gen, seed=43, mode="guarded")
    assert [p.coeffs for p in c.burst(12)] != [p.coeffs for p in pk_a]


def test_guarded_prefix_is_linearly_independent():
    rng = random.Random(3)
    for m, k in ((4, 1), (4, 5), (4, 8), (8, 6), (1, 8)):
        field = FieldSpec(m)
        gen, _ = _random_generation(rng, field, k)
        enc = Encoder(gen, seed=rng.randrange(2**32), mode="guarded")
        dec = DecoderState(gen, track_payloads=False)
        for coeffs in enc.coeff_burst(k):
            assert dec.consume_coeffs(coeffs) == 1
        assert dec.delivered


def test_guarded_tail_never_emits_zero_vector():
    # past rank k the guard has nothing left to check, yet the zero vector
    # (probability 1/4 per raw draw in GF(2)^2) must still be redrawn
    rng = random.Random(9)
    gen, _ = _random_generation(rng, FieldSpec(1), 2)
    enc = Encoder(gen, seed=1, mode="guarded")
    enc.coeff_burst(gen.k)
    for coeffs in enc.coeff_burst(500):
        assert any(coeffs)


def test_unknown_mode_rejected():
    rng = random.Random(1)
    gen, _ = _random_generation(rng, GF16, 2)
    for mode in ("systematic", "nonzero"):
        with pytest.raises(ValueError):
            Encoder(gen, seed=0, mode=mode)


# -- payload kernels against a per-symbol reference ---------------------

# (m, k, symbols): sizes that are no multiple of 8 pad the word rows
KERNEL_CASES = [(1, 5, 13), (1, 1, 8), (4, 6, 7), (4, 1, 3), (8, 9, 24), (8, 1, 5), (8, 4, 1)]


def _symbol_generation(rng, field, k, size):
    payloads = [SymbolVector(field, [rng.randrange(field.order) for _ in range(size)])
                for _ in range(k)]
    return Generation(0, field, k, size, payloads)


def _reference_combination(gen, coeffs):
    out = np.zeros(gen.symbol_size, dtype=np.uint8)
    for c, p in zip(coeffs, gen.payloads):
        vec_axpy(gen.field, out, c, p)
    return out


def _reference_solve(field, packets):
    """Gauss-Jordan on (coefficients | payload) rows with vec_axpy only."""
    k = len(packets[0].coeffs)
    rows = [np.concatenate([np.array(p.coeffs, dtype=np.uint8), p.payload.symbols])
            for p in packets]
    for col in range(k):
        piv = next(i for i in range(col, len(rows)) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        scaled = np.zeros_like(rows[col])
        vec_axpy(field, scaled, gf_inv(field, int(rows[col][col])), rows[col])
        rows[col] = scaled
        for i, row in enumerate(rows):
            if i != col and row[col]:
                vec_axpy(field, row, int(row[col]), rows[col])
    return [row[k:] for row in rows[:k]]


@pytest.mark.parametrize("m,k,size", KERNEL_CASES)
def test_coded_payload_matches_axpy_reference(m, k, size):
    field = FieldSpec(m)
    gen = _symbol_generation(random.Random(m * 1000 + k * 10 + size), field, k, size)
    for mode in ("guarded", "unrestricted"):
        for pkt in Encoder(gen, seed=5, mode=mode).burst(k + 6):
            assert len(pkt.payload) == size
            assert pkt.payload.symbols.tolist() == _reference_combination(gen, pkt.coeffs).tolist()


def test_zero_coefficient_vector_gives_zero_payload():
    # unrestricted draws in GF(2)^1 are zero half the time
    gen = _symbol_generation(random.Random(3), FieldSpec(1), 1, 13)
    packets = Encoder(gen, seed=1, mode="unrestricted").burst(20)
    zeros = [p for p in packets if not any(p.coeffs)]
    assert zeros
    for p in zeros:
        assert p.payload.symbols.tolist() == [0] * 13


@pytest.mark.parametrize("m,k,size", KERNEL_CASES)
def test_extract_matches_axpy_reference(m, k, size):
    field = FieldSpec(m)
    rng = random.Random(m * 1000 + k * 10 + size + 1)
    gen = _symbol_generation(rng, field, k, size)
    dec = DecoderState(gen)
    kept = []
    for pkt in Encoder(gen, seed=rng.randrange(2**32), mode="unrestricted").burst(20 * k + 20):
        if dec.consume(pkt):
            kept.append(pkt)
        if dec.delivered:
            break
    assert dec.delivered
    expected = [SymbolVector(field, row).pack() for row in _reference_solve(field, kept)]
    assert dec.extract() == expected
    assert expected == [p.pack() for p in gen.payloads]


# -- decoding ----------------------------------------------------------


def test_round_trip_with_losses():
    rng = random.Random(21)
    for m, k in ((4, 7), (8, 5), (1, 6)):
        field = FieldSpec(m)
        gen, data = _random_generation(rng, field, k)
        enc = Encoder(gen, seed=17, mode="guarded")
        dec = DecoderState(gen)
        while not dec.delivered:
            pkt = enc.next_packet()
            if rng.random() < 0.3:
                continue  # lost in transit
            dec.consume(pkt)
        assert b"".join(dec.extract()) == data


def test_duplicate_packet_is_not_innovative():
    rng = random.Random(31)
    gen, _ = _random_generation(rng, GF16, 4)
    enc = Encoder(gen, seed=2)
    dec = DecoderState(gen)
    pkt = enc.next_packet()
    assert dec.consume(pkt) == 1
    assert dec.consume(pkt) == 0
    assert dec.rank == 1


def test_scaled_copy_is_not_innovative():
    gen = Generation(0, GF16, 2, 4)
    dec = DecoderState(gen, track_payloads=False)
    assert dec.consume_coeffs((1, 2)) == 1
    # 3 * (1, 2) = (3, 6) over GF(16)
    assert dec.consume_coeffs((3, 6)) == 0
    assert dec.consume_coeffs((0, 1)) == 1
    assert dec.delivered


def test_generation_mismatch_rejected():
    rng = random.Random(41)
    gen_a, _ = _random_generation(rng, GF16, 3, gen_id=1)
    gen_b, _ = _random_generation(rng, GF16, 3, gen_id=2)
    dec = DecoderState(gen_a)
    with pytest.raises(GenerationMismatchError):
        dec.consume(Encoder(gen_b, seed=1).next_packet())


def test_extract_requires_full_rank():
    rng = random.Random(43)
    gen, _ = _random_generation(rng, GF16, 4)
    dec = DecoderState(gen)
    dec.consume(Encoder(gen, seed=1).next_packet())
    with pytest.raises(RankDeficientError) as err:
        dec.extract()
    assert err.value.rank == 1 and err.value.k == 4


def test_consume_cost_bounded_by_rank():
    # each consume performs at most rank+1 row operations
    rng = random.Random(47)
    for _ in range(20):
        k = rng.randrange(2, 12)
        gen = Generation(0, GF16, k, 8)
        enc = Encoder(gen, seed=rng.randrange(2**32), mode="unrestricted")
        dec = DecoderState(gen, track_payloads=False)
        while not dec.delivered:
            rank_before = dec.rank
            dec.consume_coeffs(enc.next_coeffs())
            assert dec.last_consume_row_ops <= rank_before + 1


def test_payload_and_coeff_only_decoders_agree():
    # consume (payload rows) and consume_coeffs (bare coefficient rows) run
    # one elimination, so rank and row-op counts match step by step
    rng = random.Random(59)
    for m, k in ((4, 9), (8, 6), (1, 12)):
        gen, _ = _random_generation(rng, FieldSpec(m), k)
        enc = Encoder(gen, seed=rng.randrange(2**32), mode="unrestricted")
        full = DecoderState(gen)
        bare = DecoderState(gen, track_payloads=False)
        while not full.delivered:
            pkt = enc.next_packet()
            assert full.consume(pkt) == bare.consume_coeffs(pkt.coeffs)
            assert full.last_consume_row_ops == bare.last_consume_row_ops
            assert (full.rank, full.row_ops) == (bare.rank, bare.row_ops)
        assert bare.delivered


def test_coeff_only_decoder_refuses_payload_work():
    gen = Generation(0, GF16, 2, 4)
    dec = DecoderState(gen, track_payloads=False)
    dec.consume_coeffs((1, 0))
    dec.consume_coeffs((0, 1))
    assert dec.delivered
    with pytest.raises(ValueError):
        dec.extract()  # full rank, but no payload symbols held
    with pytest.raises(ValueError):
        DecoderState(gen, track_payloads=True)  # no payloads to track


class _EchelonDecoder:
    """Reference: forward elimination into normalized echelon rows, payload
    symbols fused onto the coefficients, back-substitution at extract. Its
    row operations define ``row_ops`` and ``last_consume_row_ops``."""

    def __init__(self, gen):
        self.gen, self.k = gen, gen.k
        self.rank = self.row_ops = self.last_consume_row_ops = 0
        self.rows = {}

    def consume(self, coeffs, payload):
        field, mul = self.gen.field, self.gen.field.mul_table
        row = np.concatenate([np.array(coeffs, dtype=np.uint8), payload.symbols])
        ops = innovative = 0
        for col in range(self.k):
            c = int(row[col])
            if not c:
                continue
            pivot = self.rows.get(col)
            if pivot is None:
                if c != 1:
                    row = mul[gf_inv(field, c)].take(row)
                    ops += 1
                self.rows[col] = row
                self.rank += 1
                innovative = 1
                break
            row ^= mul[c].take(pivot)
            ops += 1
        self.row_ops += ops
        self.last_consume_row_ops = ops
        return innovative

    def extract(self):
        field, k = self.gen.field, self.k
        rows = [self.rows[col].copy() for col in range(k)]
        for col in range(k - 1, 0, -1):
            for row in rows[:col]:
                vec_axpy(field, row, int(row[col]), rows[col])
        out = [SymbolVector(field, row[k:]).pack() for row in rows]
        tail = self.gen.payload_bytes - (k - 1) * len(out[0])
        return out[:-1] + [out[-1][:tail]]


def _mixed_stream(rng, field, enc, extra):
    """Encoder packets with zero vectors, duplicates and scaled copies mixed
    in; runs until ``extra`` packets past the point where the encoder's
    stream alone reaches full rank."""
    mul, size, k = field.mul_table, enc.gen.symbol_size, enc.gen.k
    seen = _EchelonDecoder(enc.gen)
    packets = []
    while extra:
        pkt = enc.next_packet()
        packets.append(pkt)
        extra -= seen.rank == k
        seen.consume(pkt.coeffs, pkt.payload)
        roll = rng.random()
        if roll < 0.1:
            packets.append(CodedPacket(0, (0,) * k, SymbolVector(field, [0] * size), 0))
        elif roll < 0.2:
            packets.append(rng.choice(packets))
        elif roll < 0.3:
            old, c = rng.choice(packets), rng.randrange(1, field.order)
            packets.append(CodedPacket(0, tuple(int(mul[c, x]) for x in old.coeffs),
                                       SymbolVector(field, mul[c].take(old.payload.symbols)),
                                       0))
    return packets


@pytest.mark.parametrize("mode", ["guarded", "unrestricted"])
@pytest.mark.parametrize("m", [1, 4, 8])
@pytest.mark.parametrize("k", [1, 2, 7, 40, 100])
def test_decoder_matches_echelon_reference(mode, m, k):
    field = FieldSpec(m)
    rng = random.Random(1000 * m + k + (mode == "guarded"))
    gen, data = _random_generation(rng, field, k, packet_bytes=5)
    enc = Encoder(gen, seed=rng.randrange(2**32), mode=mode)
    ref, full = _EchelonDecoder(gen), DecoderState(gen)
    bare = DecoderState(gen, track_payloads=False)
    for pkt in _mixed_stream(rng, field, enc, extra=5):
        got = ref.consume(pkt.coeffs, pkt.payload)
        assert full.consume(pkt) == bare.consume_coeffs(pkt.coeffs) == got
        for dec in (full, bare):
            assert dec.last_consume_row_ops == ref.last_consume_row_ops
            assert (dec.rank, dec.row_ops) == (ref.rank, ref.row_ops)
    assert full.delivered
    expected = ref.extract()
    assert full.extract() == expected
    assert full.extract() == expected  # extract leaves the decoder unchanged
    assert b"".join(expected) == data


# -- dependence statistics ---------------------------------------------


def test_tail_dependence_matches_span_ratio():
    # after the guarded prefix the encoder falls back to nonzero draws; a
    # draw is dependent on an r-dimensional receive span with probability
    # (q^r - 1) / (q^k - 1). The simulator's rank shortcut assumes this.
    rng = random.Random(53)
    k, q, r = 2, 16, 1
    expected = (q**r - 1) / (q**k - 1)
    trials = 20_000
    dependent = 0
    gen = Generation(0, GF16, k, 4)
    for i in range(trials):
        enc = Encoder(gen, seed=i, mode="guarded")
        prefix = enc.coeff_burst(k)  # consume the guarded prefix
        dec = DecoderState(gen, track_payloads=False)
        dec.consume_coeffs(prefix[0])  # receiver holds rank r = 1
        if dec.consume_coeffs(enc.next_coeffs()) == 0:
            dependent += 1
    se = (expected * (1 - expected) / trials) ** 0.5
    assert abs(dependent / trials - expected) < 4 * se + 1e-12


# -- wire format -------------------------------------------------------


def test_serialize_round_trip():
    rng = random.Random(61)
    for m, k, packet_bytes in ((8, 5, 40), (4, 5, 40), (4, 8, 33), (1, 8, 16)):
        field = FieldSpec(m)
        gen, _ = _random_generation(rng, field, k, packet_bytes, gen_id=77)
        pkt = Encoder(gen, seed=3).next_packet(attempt=2)
        raw = serialize(pkt, field)
        assert len(raw) == wire_size(field, k, packet_bytes)
        back = deserialize(raw, field, symbol_size=gen.symbol_size)
        assert back.gen_id == 77 and back.seq == pkt.seq and back.attempt == 2
        assert back.coeffs == pkt.coeffs
        assert back.payload == pkt.payload


def test_wire_header_layout():
    assert WIRE_HEADER.size == 9
    gen = Generation.from_block(0x01020304, GF256, b"\xaa" * 8, 8)
    raw = serialize(Encoder(gen, seed=0).next_packet(), GF256)
    assert raw[:4] == b"\x01\x02\x03\x04"  # gen_id, big endian
    assert raw[4:6] == b"\x00\x01"  # k
    assert raw[6:8] == b"\x00\x00"  # seq


def test_wire_seq_wraps_at_16_bits():
    gen = Generation.from_block(5, GF256, b"\xcc" * 8, 8)
    pkt = Encoder(gen, seed=0).next_packet()
    wrapped = CodedPacket(pkt.gen_id, pkt.coeffs, pkt.payload, seq=65536)
    raw = serialize(wrapped, GF256)
    assert len(raw) == wire_size(GF256, 1, 8)
    back = deserialize(raw, GF256)
    assert back.seq == 0
    assert back.coeffs == pkt.coeffs and back.payload == pkt.payload


def test_deserialize_rejects_truncation():
    gen = Generation.from_block(1, GF256, b"\xbb" * 16, 8)
    raw = serialize(Encoder(gen, seed=0).next_packet(), GF256)
    with pytest.raises(LengthMismatchError):
        deserialize(raw[:4], GF256)
    with pytest.raises(LengthMismatchError):
        deserialize(raw[: WIRE_HEADER.size], GF256)


def test_serialize_needs_payload():
    with pytest.raises(ValueError):
        serialize(CodedPacket(0, (1, 0), None, 0), GF16)


# -- full rank probability ----------------------------------------------


def test_full_rank_probability_values():
    assert full_rank_probability(1, 2, 1) == 0.5
    assert full_rank_probability(2, 2, 2) == pytest.approx(0.375)
    # large n drives the probability to one
    assert full_rank_probability(4, 16, 40) == pytest.approx(1.0, abs=1e-9)


def test_full_rank_probability_rejects_bad_arguments():
    with pytest.raises(ValueError):
        full_rank_probability(0, 2, 2)
    with pytest.raises(ValueError):
        full_rank_probability(2, 1, 2)
    with pytest.raises(ValueError):
        full_rank_probability(4, 2, 3)
