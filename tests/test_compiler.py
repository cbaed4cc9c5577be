"""Frequency allocation, envelope synthesis, and program lowering."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from spinctl.errors import CapacityError, ConfigError, ProgramError
from spinctl.controller.image_io import dump_image
from spinctl.controller.executor import Transmitter, TxConfig
from spinctl.controller.memory import MemoryImage, list_entry
from spinctl.controller.nco import PHASE_WORDS, offset_to_ftw, quantize_unit
from spinctl.compiler import (
    CalibrationSet,
    allocate_frequencies,
    compile_program,
    default_calibration,
    parse_program,
    synthesize_envelope,
)
import spinctl.compiler.emit as emit
from spinctl.compiler.ir import GateOp, parse_angle
from spinctl.experiments.dj import ORACLES, dj_program
from spinctl.physics import DeviceModel

from helpers import rb_primitives

LO = 13.54e9


def device(**kw):
    kw.setdefault("f1", LO + 24e6)
    kw.setdefault("f2", LO - 90e6)
    return DeviceModel(**kw)


def plan_and_cal(m=None, exchange_on=False, target_rabi=1e6, amp_bits=10):
    m = m or device()
    plan = allocate_frequencies(
        (m.f1, m.f2), LO, exchange_on=exchange_on, j=m.j_on if exchange_on else None
    )
    cal = default_calibration(m, plan, amp_bits=amp_bits, target_rabi=target_rabi)
    return m, plan, cal


# -- frequency planning -------------------------------------------------------


def test_offsets_from_lo():
    _, plan, _ = plan_and_cal()
    offsets = {s.qubit: s.offset_hz for s in plan.slots}
    assert offsets == {1: 24e6, 2: -90e6}
    assert plan.slot(1, "main").ftw == offset_to_ftw(24e6)


def test_single_qubit_at_lo_gets_ftw_zero():
    plan = allocate_frequencies((LO, LO - 90e6), LO)
    assert plan.slot(1, "main").offset_hz == 0.0
    assert plan.slot(1, "main").ftw == 0


def test_exchange_on_gives_conditional_slots():
    _, plan, _ = plan_and_cal(exchange_on=True)
    q1 = {s.branch: s.offset_hz for s in plan.for_qubit(1)}
    assert q1 == {"high": 24e6 + 5e6, "low": 24e6 - 5e6}
    # Two distinct NCOs per qubit, on that qubit's bank.
    ncos = {(s.bank, s.nco) for s in plan.for_qubit(1)}
    assert len(ncos) == 2 and all(b == 0 for b, _ in ncos)


def test_unallocatable_offset_names_qubit():
    with pytest.raises(ConfigError, match="qubit 2"):
        allocate_frequencies((LO + 24e6, LO + 0.7e9), LO)


# -- envelopes -----------------------------------------------------------------


def test_rectangular_5us_is_5000_identical_points():
    env = synthesize_envelope("rectangular", 5000, 0.5)
    assert len(env) == 5000
    assert np.all(env == 0.5)


def test_gaussian_zero_amplitude_is_all_zero():
    env = synthesize_envelope("gaussian", 1000, 0.0)
    assert not env.any()


def test_gaussian_peak_and_symmetry():
    env = synthesize_envelope("gaussian", 1000, 0.9)
    assert len(env) == 1000
    # Direct-evaluation oracle at the peak samples.
    t = np.linspace(0, 1, 1000)
    g = np.exp(-((t - 0.5) ** 2) * 18.0)
    oracle = 0.9 * (g - np.exp(-4.5)) / (1 - np.exp(-4.5))
    np.testing.assert_allclose(env, oracle, atol=1e-12)
    assert env[500] == env.max()
    assert env[0] == 0.0 and env[-1] == 0.0
    np.testing.assert_allclose(env, env[::-1], atol=1e-12)


def test_envelope_needs_two_samples():
    with pytest.raises(ValueError, match="2 samples"):
        synthesize_envelope("rectangular", 1, 0.5)


# -- program text ---------------------------------------------------------------


def test_parse_program_roundtrip():
    ops = parse_program("x2 q2\nz q1 angle=pi/2\ny q1 shape=gaussian dur=1e-6\n# note\n")
    assert [o.name for o in ops] == ["x2", "z", "y"]
    assert ops[1].angle == pytest.approx(np.pi / 2)
    assert ops[2].shape == "gaussian"


def test_parse_angle_forms():
    assert parse_angle("pi/2") == pytest.approx(np.pi / 2)
    assert parse_angle("-3pi/4") == pytest.approx(-3 * np.pi / 4)
    assert parse_angle("0.25") == 0.25
    with pytest.raises(ValueError):
        parse_angle("two pi")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ProgramError, match="line 2"):
        parse_program("x q1\nbogus q1\n")


def test_negative_duration_is_a_program_error():
    with pytest.raises(ProgramError, match="line 1"):
        parse_program("x q1 dur=-1e-6\n")
    with pytest.raises(ValueError, match="duration"):
        GateOp("i", 2, duration=-4e-9)


# -- lowering -------------------------------------------------------------------


def test_zero_sample_drive_gates_emit_nothing():
    # 0.4 ns rounds to no clock samples: no burst, and a CROT then leaves the
    # control's frame alone too, so the gate that follows is unchanged.
    m, plan, cal = plan_and_cal(exchange_on=True)
    alone = compile_program([GateOp("y", 2)], plan, cal)
    for name in ("x", "x2", "i", "crot_high", "crot_low"):
        for target in (1, 2):
            prog = compile_program([GateOp(name, target, duration=0.4e-9), GateOp("y", 2)],
                                   plan, cal)
            assert prog.report["n_instructions"] == alone.report["n_instructions"]
            assert dump_image(prog.images[0]) == dump_image(alone.images[0])


def test_one_sample_drive_gate_is_a_program_error():
    # A drive burst needs two samples; a 1 ns gate at the 1 GHz clock has one.
    m, plan, cal = plan_and_cal(exchange_on=True)
    for text in ("x q1 dur=1e-9", "x q1 shape=gaussian dur=1e-9", "crot_high q1 dur=1e-9"):
        with pytest.raises(ProgramError, match=r"q1 lasts 1 sample.*at least 2 samples \(2 ns"):
            compile_program(parse_program(text), plan, cal)
    # An idle gate is no drive burst: one sample compiles to one zero burst.
    prog = compile_program(parse_program("i q1 dur=1e-9"), plan, cal)
    (ref,) = prog.images[0].instruction_list
    burst = prog.images[0].tables[ref.bank][ref.nco][ref.slot]
    assert burst.n_samples == 1
    assert not np.any(prog.images[0].envelope.amp_values(burst.start_addr, burst.stop_addr))


def test_each_envelope_is_quantized_once_per_compile(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return synthesize_envelope(*args)

    monkeypatch.setattr(emit, "synthesize_envelope", counting)
    m, plan, cal = plan_and_cal()
    entry = cal.gates[(2, "main")]
    ops = [GateOp(g, 2) for g in rb_primitives(20, seed=5)]
    compile_program(ops, plan, cal)
    # x2/y2 are the pi rotations, the rest pi/2; all rectangular at one amplitude.
    specs = {("rectangular", entry.pi_samples if op.name in ("x2", "y2")
              else entry.half_pi_samples, entry.amplitude) for op in ops}
    assert 1 < len(specs) < len(ops)
    assert sorted(calls) == sorted(specs)

    # The memo outlives a trigger split; every image still stores its block.
    calls.clear()
    prog = compile_program([GateOp("x", 2), GateOp("y", 2)] * 1200, plan, cal)
    assert prog.n_triggers >= 2
    assert calls == [("rectangular", entry.half_pi_samples, entry.amplitude)]
    assert all(len(img.envelope) == entry.half_pi_samples for img in prog.images)


def benchmark_workloads(monkeypatch):
    """The benchmark's workload module (perfbench/workloads.py), loaded from
    this checkout for one test."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


class Forgetful(dict):
    """A lookup cache that keeps nothing, so every lookup is made again."""

    def __setitem__(self, key, value):
        pass


def test_per_compile_lookups_change_no_image(monkeypatch):
    # Every image that every benchmark workload compiles at seeds 1-3, and a
    # 700-Clifford RB sequence that splits across triggers, dumps
    # byte-identical with the compiler's lookups remembered and with each
    # made again at every gate: the slots, the calibrations and the envelope
    # codes with their bytes through caches that keep nothing, and every
    # list entry made and checked again at each append.
    workloads = benchmark_workloads(monkeypatch)
    dumped = []
    compile_ = emit._Compiler.compile

    def recording(self, ops):
        prog = compile_(self, ops)
        dumped.append([dump_image(img) for img in prog.images])
        return prog

    def every_image():
        dumped.clear()
        for w in workloads.WORKLOADS.values():
            for seed in (1, 2, 3):
                w.run(w.inputs(seed))
        m, plan, cal = plan_and_cal()
        compile_program([GateOp(g, 2) for g in rb_primitives(700, seed=3)], plan, cal)
        return list(dumped)

    monkeypatch.setattr(emit._Compiler, "compile", recording)
    remembered = every_image()
    init, schedule_entry = emit._Compiler.__init__, MemoryImage.schedule_entry

    def forgetting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.slots, self.cals, self.codes = Forgetful(), Forgetful(), Forgetful()

    monkeypatch.setattr(emit._Compiler, "__init__", forgetting)
    monkeypatch.setattr(MemoryImage, "schedule_entry",
                        lambda self, entry: schedule_entry(self, list_entry(*entry)))
    made_again = every_image()
    assert len(remembered) > 3 * len(workloads.WORKLOADS)
    assert sum(len(images) > 1 for images in remembered) >= 4  # the pipeline's and the 700's
    assert remembered == made_again


def test_failed_lookups_raise_again_at_every_gate():
    # Only lookups that succeed are remembered: a gate on a qubit with no
    # calibration, or on a branch with no slot, raises each time it comes.
    m, plan, cal = plan_and_cal()
    bare = CalibrationSet(gates={(2, "main"): cal.gates[(2, "main")]})
    compiler = emit._Compiler(plan, bare, amp_bits=10, phase_mod_bits=10)
    for op, match in ((GateOp("x", 1), "no calibration for qubit 1"),
                      (GateOp("x", 2, branch="high"), "no frequency slot")):
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                compiler.emit(op)
            compiler.emit(GateOp("x", 2))


def test_single_pi_gate_is_one_instruction():
    m, plan, cal = plan_and_cal()
    prog = compile_program([GateOp("x2", 2)], plan, cal)
    assert prog.n_triggers == 1
    img = prog.images[0]
    assert len(img.instruction_list) == 1
    instr = img.tables[1][0][0]
    assert instr.n_samples == cal.gates[(2, "main")].pi_samples


def test_virtual_z_is_zero_duration_quarter_word():
    m, plan, cal = plan_and_cal()
    prog = compile_program([GateOp("z", 1, angle=np.pi / 2)], plan, cal)
    img = prog.images[0]
    assert len(img.instruction_list) == 1
    instr = img.tables[0][0][0]
    assert instr.is_phase_update
    assert instr.phase_update == 1 << 20
    assert prog.report["duration_samples"] == 0


def test_x_then_y_differ_by_quarter_turn_in_image():
    m, plan, cal = plan_and_cal()
    prog = compile_program([GateOp("x", 2), GateOp("y", 2)], plan, cal)
    img = prog.images[0]
    phases = [
        i for table in img.tables[1] for i in table if i.is_phase_update
    ]
    assert len(phases) == 1
    assert phases[0].phase_update == 1 << 20


def test_identical_envelopes_stored_once():
    m, plan, cal = plan_and_cal()
    prog = compile_program([GateOp("x", 2)] * 6, plan, cal)
    img = prog.images[0]
    half = cal.gates[(2, "main")].half_pi_samples
    assert len(img.envelope) == half  # one copy
    assert len(img.instruction_list) == 6
    assert len(img.tables[1][0]) == 1  # one shared burst instruction


def test_dedup_does_not_change_waveform():
    m, plan, cal = plan_and_cal()
    text = "x q2\ny q2\nx q2 shape=gaussian\nx2 q2\nz q2 angle=pi/4\nx q2\ny q2 shape=gaussian\n"
    ops = parse_program(text)
    prog = compile_program(ops, plan, cal)
    trace = Transmitter(TxConfig(lo_freq=LO), prog.ftws).play(prog.images[:1])
    entry = cal.gates[(2, "main")]
    gates = [op for op in ops if op.name != "z"]
    assert len(trace.segments) == len(gates)
    assert len(prog.images[0].envelope) < sum(s.n for s in trace.segments)  # blocks shared
    for op, seg in zip(gates, trace.segments):
        n = entry.pi_samples if op.name == "x2" else entry.half_pi_samples
        own = synthesize_envelope(op.shape or "rectangular", n, entry.amplitude)
        np.testing.assert_array_equal(seg.amp_values, quantize_unit(own, 10))


def _mixed_program_text(n_gates=1000):
    """Rotations on both qubits, every third gaussian, every fifth a virtual Z."""
    gates = ("x", "y", "x2", "y2", "mx", "my")
    lines = []
    for k in range(n_gates):
        q = 1 + k % 2
        if k % 5 == 4:
            lines.append(f"z q{q} angle=pi/{1 + k % 4}")
        else:
            shape = " shape=gaussian" if k % 3 == 0 else ""
            lines.append(f"{gates[k % 6]} q{q}{shape}")
    return "\n".join(lines) + "\n"


# sha256 over the dumped images of _mixed_program_text(): pins envelope
# addresses, zero-padding sharing, dedup and trigger splits at once.
MIXED_PROGRAM_SHA256 = "e1f4cd7b972dace5845624fc3e7c055e8baaf20d00794005afcd22ed12b7f06b"


def test_compiled_images_golden():
    m, plan, cal = plan_and_cal()
    prog = compile_program(parse_program(_mixed_program_text()), plan, cal)
    assert prog.n_triggers == 67
    digest = hashlib.sha256()
    for img in prog.images:
        digest.update(dump_image(img))
    assert digest.hexdigest() == MIXED_PROGRAM_SHA256


# sha256 over the DAC output of _mixed_program_text() played back to back,
# then its first image once more on the same transmitter: pins the samples,
# bank summation, clipping and phase coherence across triggers.
MIXED_WAVEFORM_SHA256 = "98ed8c285d8e6aed1d5438ff1fa5e56174fb6e1e659a33dd3109e3f000f8a35e"


def test_executed_waveform_golden():
    m, plan, cal = plan_and_cal()
    prog = compile_program(parse_program(_mixed_program_text()), plan, cal)
    tx = Transmitter(TxConfig(lo_freq=LO), prog.ftws)
    digest = hashlib.sha256()
    for wf in (tx.execute_sequence(prog.images), tx.execute(prog.images[0])):
        digest.update(wf.i.tobytes())
        digest.update(wf.q.tobytes())
        digest.update(np.float64(wf.start_time).tobytes())
    assert digest.hexdigest() == MIXED_WAVEFORM_SHA256


def _exchange_program_text(n_gates=600):
    """Exchange-on mix on both qubits: CROTs of either branch, virtual Z,
    idles of 0-16 ns and rotations on both|high|low; every fourth gaussian."""
    gates = ("x", "y", "x2", "y2", "mx", "my")
    lines = []
    for k in range(n_gates):
        q = 1 + k % 2
        shape = " shape=gaussian" if k % 4 == 3 else ""
        kind = k % 5
        if kind == 0:
            lines.append(f"crot_{('high', 'low')[k // 10 % 2]} q{q}{shape}")
        elif kind == 1:
            lines.append(f"z q{q} angle=pi/{1 + k % 7}")
        elif kind == 2:
            lines.append(f"i q{q} dur={k // 5 % 5 * 4}e-9")
        else:
            branch = ("both", "high", "low")[k // 5 % 3]
            lines.append(f"{gates[k // 5 % 6]} q{q} branch={branch}{shape}")
    return "\n".join(lines) + "\n"


# sha256 over the dumped images of _exchange_program_text(), then over its
# DAC output played back to back: pins CROT lowering (burst, frame fix on
# the control), idles, branch-restricted rotations and their trigger splits.
EXCHANGE_IMAGES_SHA256 = "a4b82c48d7c4f010e6abf9094877163243b7fc583e243bf6a499eed5faf891bb"
EXCHANGE_WAVEFORM_SHA256 = "5831e0f2366cec5819f871928aea5b0bfa2771c80eac782650dfcc580cf532bb"


def test_exchange_on_program_golden():
    m, plan, cal = plan_and_cal(exchange_on=True)
    prog = compile_program(parse_program(_exchange_program_text()), plan, cal)
    images = hashlib.sha256(b"".join(dump_image(img) for img in prog.images))
    wf = Transmitter(TxConfig(lo_freq=LO), prog.ftws).execute_sequence(prog.images)
    waveform = hashlib.sha256(wf.i.tobytes() + wf.q.tobytes())
    assert prog.n_triggers == 63
    assert len(wf) == prog.report["duration_samples"] == 172210
    assert images.hexdigest() == EXCHANGE_IMAGES_SHA256
    assert waveform.hexdigest() == EXCHANGE_WAVEFORM_SHA256


def test_cross_bank_gates_are_padded_sequential():
    m, plan, cal = plan_and_cal()
    ops = [GateOp("x2", 2), GateOp("x2", 1)]
    prog = compile_program(ops, plan, cal)
    img = prog.images[0]
    pi2 = cal.gates[(2, "main")].pi_samples
    pi1 = cal.gates[(1, "main")].pi_samples
    assert prog.report["duration_samples"] == pi1 + pi2
    cfg = TxConfig(lo_freq=LO)
    wf = Transmitter(cfg, prog.ftws).execute(img)
    assert len(wf) == pi1 + pi2
    # One tone at a time: every sample carries power from exactly one burst.
    power = np.abs(wf.envelope) ** 2
    assert power[:pi2].all() and power[pi2:].all()
    assert power.max() < 2 * power.min()  # no overlapped summation anywhere


def test_exchange_on_single_qubit_gate_hits_both_branches():
    m, plan, cal = plan_and_cal(exchange_on=True)
    prog = compile_program([GateOp("x", 1)], plan, cal)
    img = prog.images[0]
    bursts = [r for r in img.instruction_list]
    assert len(bursts) == 2
    ncos = {(r.bank, r.nco) for r in bursts}
    assert len(ncos) == 2
    # Restricting the branch keeps a single burst.
    prog_low = compile_program([GateOp("x", 1, branch="low")], plan, cal)
    assert len(prog_low.images[0].instruction_list) == 1


def test_crot_emits_phase_correction_on_control():
    m, plan, cal = plan_and_cal(exchange_on=True)
    prog = compile_program([GateOp("crot_high", 1)], plan, cal)
    img = prog.images[0]
    # One burst on qubit 1's high slot plus corrections on qubit 2's slots.
    entries = img.instruction_list
    assert len(entries) == 3
    burst = img.tables[entries[0].bank][entries[0].nco][entries[0].slot]
    assert not burst.is_phase_update
    for ref in entries[1:]:
        corr = img.tables[ref.bank][ref.nco][ref.slot]
        assert corr.is_phase_update
        assert corr.phase_update == 1 << 20  # +pi/2


def test_crot_needs_exchange_plan():
    m, plan, cal = plan_and_cal(exchange_on=False)
    with pytest.raises(ValueError, match="branch"):
        compile_program([GateOp("crot_high", 1)], plan, cal)


def test_hand_built_calibration_applies_crot_corrections():
    # Gate calibrations alone give the same CROT frame fixes as the default.
    m, plan, cal = plan_and_cal(exchange_on=True)
    bare = CalibrationSet(gates=cal.gates)
    for oracle in ORACLES:
        ops = dj_program(oracle)
        images = [compile_program(ops, plan, c).images for c in (bare, cal)]
        assert [dump_image(i) for i in images[0]] == [dump_image(i) for i in images[1]]


def test_long_program_splits_across_triggers():
    m, plan, cal = plan_and_cal()
    ops = [GateOp("x", 2), GateOp("y", 2)] * 1200  # > 2048 instructions
    prog = compile_program(ops, plan, cal)
    assert prog.report["split"]
    assert prog.n_triggers >= 2
    assert all(len(i.instruction_list) <= 2048 for i in prog.images)
    assert prog.report["n_instructions"] >= 2400


def test_gate_too_long_for_a_fresh_image_raises():
    # 50 us of envelope exceeds the 40960-entry store in an empty image, and
    # again in the fresh image that a program with earlier gates retries in.
    m, plan, cal = plan_and_cal()
    long_x = GateOp("x", 2, duration=50e-6)
    for ops in ([long_x], [GateOp("x", 2), long_x]):
        with pytest.raises(CapacityError, match="envelope memory"):
            compile_program(ops, plan, cal)


def test_report_occupancy():
    m, plan, cal = plan_and_cal()
    prog = compile_program(parse_program("x q1\nx2 q1\n"), plan, cal)
    occ = prog.report["occupancy"][0]
    assert occ["list_used"] == 2
    assert occ["envelope_used"] == (
        cal.gates[(1, "main")].half_pi_samples + cal.gates[(1, "main")].pi_samples
    )


def test_split_two_qubit_program_plays_its_reported_duration():
    # Every trigger restarts both banks together, so the compiler's timeline
    # must restart them together too, or the lagging bank gets idle pads.
    m, plan, cal = plan_and_cal()
    q1, q2 = GateOp("x", 1, duration=4e-9), GateOp("y", 2, duration=6e-9)
    prog = compile_program([q1, q1, q2] * 700, plan, cal)
    assert prog.n_triggers >= 2
    tx = Transmitter(TxConfig(lo_freq=LO), prog.ftws)
    assert len(tx.execute_sequence(prog.images)) == prog.report["duration_samples"]
