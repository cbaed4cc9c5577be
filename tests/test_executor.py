"""Instruction execution: timing, phase coherence, bank summation."""

import re
import tracemalloc

import numpy as np
import pytest

import spinctl.controller.executor as executor
from spinctl.controller.executor import (
    SYNTH_BATCH,
    Transmitter,
    TxConfig,
    end_words,
    synthesize,
)
from spinctl.controller.memory import Instruction, MemoryImage
from spinctl.controller.nco import (
    PHASE_BITS,
    PHASE_WORDS,
    freq_to_ftw,
    max_grid_value,
    offset_to_ftw,
    pac_convert,
    quantize_unit,
)
from spinctl.errors import ConfigError


def make_image(cfg, n_env=100, amp=0.5):
    img = MemoryImage()
    img.envelope.amp_bits = cfg.amp_bits
    img.envelope.phase_mod_bits = cfg.phase_mod_bits
    img.envelope.write_values(np.full(n_env, amp))
    return img


def test_empty_list_gives_zero_length_waveform():
    cfg = TxConfig()
    wf = Transmitter(cfg).execute(MemoryImage())
    assert len(wf) == 0
    assert wf.duration == 0.0


def test_5000_point_envelope_is_5_us():
    cfg = TxConfig()
    img = make_image(cfg, n_env=5000)
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=4999))
    img.schedule(0, 0, 0)
    wf = Transmitter(cfg, {(0, 0): freq_to_ftw(24e6)}).execute(img)
    assert len(wf) == 5000
    assert wf.duration == pytest.approx(5e-6)


def test_burst_matches_closed_form_sinusoid():
    # High-resolution converters: output should track amp * exp(j*theta_k).
    cfg = TxConfig(dac_bits=24, amp_bits=20, pac_addr_bits=22)
    img = make_image(cfg, n_env=2000, amp=0.5)
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=1999))
    img.schedule(0, 0, 0)
    ftw = freq_to_ftw(24e6)
    wf = Transmitter(cfg, {(0, 0): ftw}).execute(img)
    k = np.arange(1, 2001)
    theta = 2 * np.pi * ((k * ftw) % PHASE_WORDS) / PHASE_WORDS
    np.testing.assert_allclose(wf.envelope, 0.5 * np.exp(1j * theta), atol=1e-5)


def test_phase_update_shifts_second_burst_by_pi():
    cfg = TxConfig(dac_bits=24, amp_bits=20, pac_addr_bits=22)
    n = 500
    ftw = freq_to_ftw(24e6)

    img = make_image(cfg, n_env=n, amp=0.5)
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=n - 1))
    img.add_instruction(0, 0, Instruction(0, phase_update=PHASE_WORDS // 2))
    img.schedule(0, 0, 0)
    img.schedule(0, 0, 1)
    img.schedule(0, 0, 0)
    wf = Transmitter(cfg, {(0, 0): ftw}).execute(img)

    # Continuous-phase extrapolation of the first burst, sign-flipped.
    k = np.arange(1, 2 * n + 1)
    theta = 2 * np.pi * ((k * ftw) % PHASE_WORDS) / PHASE_WORDS
    ideal = 0.5 * np.exp(1j * theta)
    np.testing.assert_allclose(wf.envelope[:n], ideal[:n], atol=1e-5)
    np.testing.assert_allclose(wf.envelope[n:], -ideal[n:], atol=1e-5)


def test_phase_coherence_across_idle_gap():
    # Burst, idle gap, burst must equal one continuous burst cut into pieces.
    cfg = TxConfig(dac_bits=16, amp_bits=12, pac_addr_bits=14)
    ftw = freq_to_ftw(36.5e6)
    n, gap = 400, 333

    img = make_image(cfg, n_env=1200, amp=0.7)
    zero_start, zero_stop = img.envelope.write_values(np.zeros(gap))
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=n - 1))
    img.add_instruction(0, 0, Instruction(0, start_addr=zero_start, stop_addr=zero_stop))
    for slot in (0, 1, 0):
        img.schedule(0, 0, slot)
    gapped = Transmitter(cfg, {(0, 0): ftw}).execute(img)

    img2 = make_image(cfg, n_env=1200, amp=0.7)
    img2.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=n - 1))
    img2.schedule(0, 0, 0)
    cont = Transmitter(cfg, ftws={(0, 0): ftw})
    first = cont.execute(img2)
    img3 = make_image(cfg, n_env=1200, amp=0.7)
    img3.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=n - 1))
    img3.schedule(0, 0, 0)

    np.testing.assert_array_equal(gapped.i[:n], first.i)
    # Second burst starts at global sample n + gap in both runs.
    start = n + gap
    k = np.arange(start + 1, start + n + 1)
    theta = 2 * np.pi * ((k * ftw) % PHASE_WORDS) / PHASE_WORDS
    np.testing.assert_allclose(
        gapped.envelope[start:], 0.7 * np.exp(1j * theta), atol=1e-3
    )
    assert not gapped.i[n:start].any()


def test_banks_play_concurrently_and_sum():
    cfg = TxConfig(dac_bits=16, amp_bits=12, pac_addr_bits=14)
    img = make_image(cfg, n_env=256, amp=0.3)
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=255))
    img.add_instruction(1, 2, Instruction(2, start_addr=0, stop_addr=255))
    img.schedule(0, 0, 0)
    img.schedule(1, 2, 0)
    two = Transmitter(cfg, {(0, 0): freq_to_ftw(24e6), (1, 2): freq_to_ftw(90e6)}).execute(img)
    assert len(two) == 256  # concurrent, not sequential

    img_a = make_image(cfg, n_env=256, amp=0.3)
    img_a.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=255))
    img_a.schedule(0, 0, 0)
    only_a = Transmitter(cfg, {(0, 0): freq_to_ftw(24e6)}).execute(img_a)
    img_b = make_image(cfg, n_env=256, amp=0.3)
    img_b.add_instruction(1, 2, Instruction(2, start_addr=0, stop_addr=255))
    img_b.schedule(1, 2, 0)
    only_b = Transmitter(cfg, {(1, 2): freq_to_ftw(90e6)}).execute(img_b)
    np.testing.assert_allclose(two.i, only_a.i + only_b.i, atol=1e-12)


def test_bank_sum_saturates_at_rails():
    cfg = TxConfig(dac_bits=8, amp_bits=10, pac_addr_bits=12)
    img = make_image(cfg, n_env=64, amp=0.9)
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=63))
    img.add_instruction(1, 0, Instruction(0, start_addr=0, stop_addr=63))
    img.schedule(0, 0, 0)
    img.schedule(1, 0, 0)
    wf = Transmitter(cfg).execute(img)  # ftw 0 on both: q = 0.9 + 0.9 saturates
    assert wf.q.max() == max_grid_value(8)
    assert wf.q.min() >= -1.0


def test_same_bank_instructions_are_sequential():
    cfg = TxConfig()
    img = make_image(cfg, n_env=100)
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=99))
    img.add_instruction(0, 1, Instruction(1, start_addr=0, stop_addr=49))
    img.schedule(0, 0, 0)
    img.schedule(0, 1, 0)
    wf = Transmitter(cfg).execute(img)
    assert len(wf) == 150


def test_deterministic_bit_identical():
    cfg = TxConfig()
    def run():
        img = make_image(cfg, n_env=777, amp=0.618)
        img.add_instruction(0, 5, Instruction(5, start_addr=0, stop_addr=776))
        img.schedule(0, 5, 0)
        return Transmitter(cfg, {(0, 5): freq_to_ftw(123.456e6)}).execute(img)
    a, b = run(), run()
    assert a.i.tobytes() == b.i.tobytes()
    assert a.q.tobytes() == b.q.tobytes()


def test_validation_runs_before_any_output():
    cfg = TxConfig()
    img = make_image(cfg, n_env=10)
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=9))
    img.schedule(0, 0, 0)
    img.instruction_list.append(
        type(img.instruction_list[0])(bank=1, nco=4, slot=3)
    )
    tx = Transmitter(cfg)
    with pytest.raises(ValueError, match="empty slot"):
        tx.execute(img)
    assert tx.sample_count == 0


def test_trace_records_bursts():
    cfg = TxConfig()
    img = make_image(cfg, n_env=50, amp=0.25)
    img.add_instruction(1, 7, Instruction(7, start_addr=10, stop_addr=29))
    img.schedule(1, 7, 0)
    trace = Transmitter(cfg, ftws={(1, 7): 4321}).play([img])
    assert len(trace.segments) == 1
    seg = trace.segments[0]
    assert (seg.bank, seg.nco, seg.t0, seg.n, seg.ftw) == (1, 7, 0, 20, 4321)
    assert seg.amp_values.shape == (20,)


@pytest.mark.parametrize("key, ftw", [((-1, 3), 1234), ((2, 0), 1234), ((0, 16), 1234),
                                      ((1, 5), PHASE_WORDS)])
def test_set_ftws_checks_every_entry_before_storing(key, ftw):
    tx = Transmitter(TxConfig(), {(0, 1): 77})
    with pytest.raises(ConfigError, match=re.escape(str(key))):
        tx.set_ftws({(1, 3): 99, key: ftw})
    assert np.count_nonzero(tx.ftws) == 1 and tx.ftws[0, 1] == 77


def test_play_records_constancy_once_per_envelope_block():
    cfg = TxConfig()
    img = make_image(cfg, n_env=40, amp=0.25)  # block 0..39: constant
    img.envelope.write_codes(np.arange(1, 31), np.full(30, 5))  # 40..69: ramp
    img.envelope.write_codes(np.full(20, 9), np.arange(20) % 4)  # 70..89: phase varies
    blocks = [(0, 39), (40, 69), (70, 89), (0, 39)]
    for slot, (start, stop) in enumerate(blocks):
        img.add_instruction(0, 2, Instruction(2, start_addr=start, stop_addr=stop))
        img.schedule(0, 2, slot)
    tx = Transmitter(cfg, ftws={(0, 2): 987_654})
    tx.sample_count = 123_456_789  # a late start: large phase accumulators
    trace = tx.play([img])
    bits = trace.phase_mod_bits
    assert [s.constant for s in trace.segments] == [True, False, False, True]
    for seg in trace.segments:
        amp, codes = seg.amp_values, seg.phase_codes
        assert seg.constant == bool(np.all(amp == amp[0]) and np.all(codes == codes[0]))
    ends = [seg.phase_words(bits)[[0, -1]] for seg in trace.segments]
    assert np.array_equal(end_words(trace.segments, bits), np.transpose(ends))
    first, last = trace.segments[0], trace.segments[-1]
    assert first.amp_values is last.amp_values  # one block, read once
    assert not first.amp_values.flags.writeable and not first.phase_codes.flags.writeable


def test_phase_words_stay_exact_after_2_to_the_42_samples(monkeypatch):
    # At the largest tuning word ftw * k passes 2**63 near 2**41 samples.
    # The burst's phase words, its end words and the words ``synthesize``
    # feeds the PAC all come from one rule; each must equal exact integers.
    cfg = TxConfig()
    img = MemoryImage()
    img.envelope.write_codes(np.full(6, 300), np.array([0, 1, 1023, 512, 7, 1000]))
    img.add_instruction(0, 2, Instruction(2, start_addr=0, stop_addr=5))
    img.schedule(0, 2, 0)
    tx = Transmitter(cfg, ftws={(0, 2): PHASE_WORDS - 1})
    tx.sample_count = 2**42
    trace = tx.play([img])
    (seg,) = trace.segments
    shift = PHASE_BITS - trace.phase_mod_bits
    oracle = [(seg.ftw * (seg.t0 + k) + seg.ref_word + (int(c) << shift)) % PHASE_WORDS
              for k, c in enumerate(seg.phase_codes.tolist(), start=1)]
    assert seg.t0 == 2**42 and seg.ftw == PHASE_WORDS - 1
    assert seg.phase_words(trace.phase_mod_bits).tolist() == oracle
    assert end_words([seg], trace.phase_mod_bits).tolist() == [[oracle[0]], [oracle[-1]]]
    fed = []

    def recording(phase, amplitude, **bits):
        fed.append(np.array(phase))
        return pac_convert(phase, amplitude, **bits)

    monkeypatch.setattr(executor, "pac_convert", recording)
    synthesize(trace, cfg)
    assert np.concatenate(fed).tolist() == oracle


def per_burst_reference(trace, cfg):
    """DAC output of a trace burst by burst, each PAC angle evaluated
    directly: the reference for the batched ``synthesize``."""
    z = np.zeros(trace.n_samples, dtype=complex)
    for seg in trace.segments:
        addr = seg.phase_words(trace.phase_mod_bits) >> (PHASE_BITS - cfg.pac_addr_bits)
        theta = addr * (2.0 * np.pi / (1 << cfg.pac_addr_bits))
        t = seg.t0 - trace.start
        z.imag[t : t + seg.n] += quantize_unit(seg.amp_values * np.sin(theta), cfg.dac_bits)
        z.real[t : t + seg.n] += quantize_unit(seg.amp_values * np.cos(theta), cfg.dac_bits)
    for part in (z.real, z.imag):
        np.clip(part, *cfg.dac_rails, out=part)
    return z


@pytest.mark.parametrize("cfg", [TxConfig(), TxConfig(dac_bits=24, amp_bits=20, pac_addr_bits=22)],
                         ids=["10-bit", "22-bit-pac"])
def test_synthesize_matches_per_burst_reference(cfg):
    img = make_image(cfg, n_env=300, amp=0.1)
    n_code = 1 << cfg.phase_mod_bits
    img.envelope.write_values(np.linspace(0.05, 0.7, 300), (np.arange(300) * 37) % n_code)
    # Three back-to-back medium bursts straddle a batch bound; the long
    # burst alone exceeds a batch.
    medium = img.envelope.write_values(np.full(SYNTH_BATCH // 3 + 11, 0.45))
    long = img.envelope.write_values(np.full(SYNTH_BATCH + 100, 0.3), np.full(SYNTH_BATCH + 100, 5))
    ramp = (300, 599)
    plays = {
        (0, 0): [ramp, medium, "phase", medium, medium],
        (0, 1): [(0, 299), long],  # shares a batch with NCO 0's last burst
        # Bank 1 overlaps bank 0 and ends earlier: its ramp and the next
        # trigger's first burst fit one batch but do not play back to back.
        (1, 3): [medium, medium, long, ramp],
    }
    for (bank, nco), blocks in plays.items():
        for block in blocks:
            instr = (Instruction(nco, phase_update=PHASE_WORDS // 3) if block == "phase"
                     else Instruction(nco, start_addr=block[0], stop_addr=block[1]))
            img.schedule(bank, nco, img.add_instruction(bank, nco, instr))
    ftws = {(0, 0): freq_to_ftw(24e6), (0, 1): freq_to_ftw(90.5e6), (1, 3): offset_to_ftw(-37e6)}
    tx = Transmitter(cfg, ftws)
    first, second = tx.play([img, img]), tx.play([img])  # bank 1 idles between triggers
    assert first.start == 0 < second.start
    assert max(seg.n for seg in first.segments) > SYNTH_BATCH
    for trace in (first, second):
        wf = synthesize(trace, cfg)
        assert wf.envelope.tobytes() == per_burst_reference(trace, cfg).tobytes()


def test_synthesize_transients_stay_bounded():
    # 64 bursts of 2000 samples per bank and trigger: one PAC call per bank
    # would hold about 25 MiB of transients beside the 4 MiB output.
    cfg = TxConfig()
    img = make_image(cfg, n_env=2000, amp=0.4)
    for bank in (0, 1):
        for nco in range(8):
            for _ in range(8):
                instr = Instruction(nco, start_addr=0, stop_addr=1999)
                img.schedule(bank, nco, img.add_instruction(bank, nco, instr))
    ftws = {(bank, nco): 1000 * nco + 7 * bank for bank in (0, 1) for nco in range(8)}
    trace = Transmitter(cfg, ftws).play([img, img])
    tracemalloc.start()
    try:
        wf = synthesize(trace, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(wf) == 2 * 64 * 2000
    assert peak - wf.envelope.nbytes < 2 << 20
