"""Instruction execution: timing, phase coherence, bank summation."""

import re

import numpy as np
import pytest

from spinctl.controller.executor import Transmitter, TxConfig, execute
from spinctl.controller.memory import Instruction, MemoryImage
from spinctl.controller.nco import PHASE_WORDS, freq_to_ftw, max_grid_value
from spinctl.errors import ConfigError


def make_image(cfg, n_env=100, amp=0.5):
    img = MemoryImage()
    img.envelope.amp_bits = cfg.amp_bits
    img.envelope.phase_mod_bits = cfg.phase_mod_bits
    img.envelope.write_values(np.full(n_env, amp))
    return img


def test_empty_list_gives_zero_length_waveform():
    cfg = TxConfig()
    wf = execute(MemoryImage(), cfg)
    assert len(wf) == 0
    assert wf.duration == 0.0


def test_5000_point_envelope_is_5_us():
    cfg = TxConfig()
    img = make_image(cfg, n_env=5000)
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=4999))
    img.schedule(0, 0, 0)
    wf = execute(img, cfg, ftws={(0, 0): freq_to_ftw(24e6)})
    assert len(wf) == 5000
    assert wf.duration == pytest.approx(5e-6)


def test_burst_matches_closed_form_sinusoid():
    # High-resolution converters: output should track amp * exp(j*theta_k).
    cfg = TxConfig(dac_bits=24, amp_bits=20, pac_addr_bits=22)
    img = make_image(cfg, n_env=2000, amp=0.5)
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=1999))
    img.schedule(0, 0, 0)
    ftw = freq_to_ftw(24e6)
    wf = execute(img, cfg, ftws={(0, 0): ftw})
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
    wf = execute(img, cfg, ftws={(0, 0): ftw})

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
    gapped = execute(img, cfg, ftws={(0, 0): ftw})

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
    two = execute(img, cfg, ftws={(0, 0): freq_to_ftw(24e6), (1, 2): freq_to_ftw(90e6)})
    assert len(two) == 256  # concurrent, not sequential

    img_a = make_image(cfg, n_env=256, amp=0.3)
    img_a.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=255))
    img_a.schedule(0, 0, 0)
    only_a = execute(img_a, cfg, ftws={(0, 0): freq_to_ftw(24e6)})
    img_b = make_image(cfg, n_env=256, amp=0.3)
    img_b.add_instruction(1, 2, Instruction(2, start_addr=0, stop_addr=255))
    img_b.schedule(1, 2, 0)
    only_b = execute(img_b, cfg, ftws={(1, 2): freq_to_ftw(90e6)})
    np.testing.assert_allclose(two.i, only_a.i + only_b.i, atol=1e-12)


def test_bank_sum_saturates_at_rails():
    cfg = TxConfig(dac_bits=8, amp_bits=10, pac_addr_bits=12)
    img = make_image(cfg, n_env=64, amp=0.9)
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=63))
    img.add_instruction(1, 0, Instruction(0, start_addr=0, stop_addr=63))
    img.schedule(0, 0, 0)
    img.schedule(1, 0, 0)
    wf = execute(img, cfg)  # ftw 0 on both: q = 0.9 + 0.9 saturates
    assert wf.q.max() == max_grid_value(8)
    assert wf.q.min() >= -1.0


def test_same_bank_instructions_are_sequential():
    cfg = TxConfig()
    img = make_image(cfg, n_env=100)
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=99))
    img.add_instruction(0, 1, Instruction(1, start_addr=0, stop_addr=49))
    img.schedule(0, 0, 0)
    img.schedule(0, 1, 0)
    wf = execute(img, cfg)
    assert len(wf) == 150


def test_deterministic_bit_identical():
    cfg = TxConfig()
    def run():
        img = make_image(cfg, n_env=777, amp=0.618)
        img.add_instruction(0, 5, Instruction(5, start_addr=0, stop_addr=776))
        img.schedule(0, 5, 0)
        return execute(img, cfg, ftws={(0, 5): freq_to_ftw(123.456e6)})
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
