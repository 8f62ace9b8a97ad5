from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scpsim.fabric import (
    ArityViolation,
    BankConflict,
    CounterOverflow,
    ExtensionInstruction,
    FabricCapacity,
    FabricError,
    ForbiddenOperation,
    InvocationLog,
    IramState,
    PackOverflow,
    RangeError,
    ResourceExceeded,
    ResourceLedger,
    ei_execute,
    ei_validate,
    wr_pack,
    wr_unpack,
)


def make_ei(name="t", body=None, n_inputs=1, n_outputs=1, ledger=None, ops=()):
    if body is None:
        body = lambda inputs, iram: inputs[:1]
    return ExtensionInstruction(
        name=name,
        body=body,
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        ledger=ledger or ResourceLedger(),
        ops_used=frozenset(ops),
    )


# ---------------------------------------------------------------- registers


def test_pack_fifteen_bytes_leaves_tail_zero():
    wr = wr_pack(bytes(range(1, 16)))
    assert wr.data[15] == 0
    assert wr.data[:15] == bytes(range(1, 16))


def test_pack_empty_is_all_zero():
    assert wr_pack(b"").data == bytes(16)


def test_pack_overflow():
    with pytest.raises(PackOverflow):
        wr_pack(bytes(17))


def test_unpack_round_trip():
    data = bytes(range(1, 16))
    assert wr_unpack(wr_pack(data), 0, 15) == data


def test_unpack_tail_of_zero_register():
    assert wr_unpack(wr_pack(b""), 15, 1) == b"\x00"


def test_unpack_out_of_range():
    with pytest.raises(RangeError):
        wr_unpack(wr_pack(b""), 10, 7)


@given(st.binary(min_size=0, max_size=16))
def test_pack_unpack_identity(data):
    assert wr_unpack(wr_pack(data), 0, len(data)) == data


def test_register_requires_sixteen_bytes():
    from scpsim.fabric import WideRegister

    with pytest.raises(ValueError):
        WideRegister(b"\x00" * 15)


# ---------------------------------------------------------------- validator


def test_validate_single_stage():
    assert ei_validate(make_ei(ledger=ResourceLedger(multipliers_used=45, alu_ops_used=165))) == 1


def test_validate_two_stages():
    ei = make_ei(ledger=ResourceLedger(multipliers_used=72, alu_ops_used=264))
    before = dict(vars(ei))
    assert ei_validate(ei) == 2
    assert vars(ei) == before


def test_validate_zero_multipliers_is_one_stage():
    assert ei_validate(make_ei(ledger=ResourceLedger())) == 1


def test_validate_iram_over_capacity():
    with pytest.raises(ResourceExceeded):
        ei_validate(make_ei(ledger=ResourceLedger(iram_bytes_used=70000)))


def test_validate_alu_budget_scales_with_stages():
    # 5000 ALU ops exceed one stage's 4096 but fit in two
    with pytest.raises(ResourceExceeded):
        ei_validate(make_ei(ledger=ResourceLedger(alu_ops_used=5000)))
    ok = make_ei(ledger=ResourceLedger(multipliers_used=72, alu_ops_used=5000))
    assert ei_validate(ok) == 2


def test_validate_input_arity():
    with pytest.raises(ArityViolation):
        ei_validate(make_ei(n_inputs=4))


def test_validate_output_arity():
    with pytest.raises(ArityViolation):
        ei_validate(make_ei(n_outputs=3))


@pytest.mark.parametrize("op", ["div", "float_mul", "sin", "sqrt"])
def test_validate_forbidden_operations(op):
    with pytest.raises(ForbiddenOperation):
        ei_validate(make_ei(ops=("add", op)))


def test_validate_custom_capacity():
    small = FabricCapacity(multipliers=8, alu_ops=16, iram_bytes=128)
    assert ei_validate(make_ei(ledger=ResourceLedger(multipliers_used=20)), small) == 3
    with pytest.raises(ResourceExceeded):
        ei_validate(make_ei(ledger=ResourceLedger(iram_bytes_used=129)), small)


def test_ledger_rejects_negative_counts():
    with pytest.raises(ValueError):
        ResourceLedger(multipliers_used=-1)


# ---------------------------------------------------------------- executor


def test_identity_ei_preserves_bytes():
    wr = wr_pack(bytes(range(16)))
    (out,) = ei_execute(make_ei(), (wr,))
    assert out.data == wr.data


def test_execute_is_deterministic():
    ei = make_ei(body=lambda inputs, iram: (wr_pack(bytes(b ^ 0x5A for b in inputs[0].data)),))
    wr = wr_pack(bytes(range(16)))
    first = ei_execute(ei, (wr,))
    second = ei_execute(ei, (wr,))
    assert first == second


def test_execute_validates_before_the_first_run():
    with pytest.raises(ForbiddenOperation):
        ei_execute(make_ei(ops=("sqrt",)), (wr_pack(b""),))


def test_execute_checks_input_count():
    with pytest.raises(ArityViolation):
        ei_execute(make_ei(n_inputs=2), (wr_pack(b""),))


def test_execute_checks_produced_outputs():
    liar = make_ei(body=lambda inputs, iram: (inputs[0], inputs[0]), n_outputs=1)
    with pytest.raises(ArityViolation):
        ei_execute(liar, (wr_pack(b""),))


def test_execute_requires_iram_when_kernel_uses_it():
    ei = make_ei(
        body=lambda inputs, iram: (inputs[0],),
        ops=("iram_read",),
        ledger=ResourceLedger(iram_bytes_used=256),
    )
    with pytest.raises(ValueError):
        ei_execute(ei, (wr_pack(b""),))


def test_execute_logs_invocations():
    log = InvocationLog()
    ei = make_ei(name="probe")
    for _ in range(3):
        ei_execute(ei, (wr_pack(b""),), log=log)
    assert log.counts["probe"] == 3
    assert log.total == 3


# ---------------------------------------------------------------- iram


def test_iram_geometry():
    iram = IramState()
    assert iram.banks == 16
    assert iram.total_bytes == 65536


def test_one_access_per_bank_per_invocation():
    iram = IramState()

    def two_entries(inputs, iram):
        iram.add_counter(0, 1)
        iram.add_counter(0, 2)

    ei = make_ei(body=two_entries, n_outputs=0, ops=("add", "iram_read", "iram_write"),
                 ledger=ResourceLedger(iram_bytes_used=512))
    with pytest.raises(BankConflict):
        ei_execute(ei, (wr_pack(b""),), iram=iram)


def test_lane_per_bank_pattern_is_accepted():
    iram = IramState()

    def one_each(inputs, iram):
        for bank in range(16):
            iram.add_counter(bank, 5)

    ei = make_ei(body=one_each, n_outputs=0, ops=("add", "iram_read", "iram_write"),
                 ledger=ResourceLedger(iram_bytes_used=8192))
    ei_execute(ei, (wr_pack(b""),), iram=iram)
    assert all(iram.counters(bank)[5] == 1 for bank in range(16))


def test_rmw_of_one_entry_counts_once():
    iram = IramState()
    with iram.invocation():
        iram.read_counter(3, 9)
        iram.write_counter(3, 9, 7)
        iram.add_counter(3, 9)
    assert iram.counters(3)[9] == 8


def test_second_entry_in_bank_conflicts_even_for_reads():
    iram = IramState()
    with iram.invocation():
        iram.read_lut(2, 0)
        with pytest.raises(BankConflict):
            iram.read_lut(2, 1)


def test_access_log_resets_between_invocations():
    iram = IramState()
    with iram.invocation():
        iram.add_counter(0, 1)
    with iram.invocation():
        iram.add_counter(0, 2)
    assert iram.counters(0)[1] == 1
    assert iram.counters(0)[2] == 1


def test_invocations_cannot_nest():
    iram = IramState()
    with iram.invocation():
        with pytest.raises(FabricError):
            with iram.invocation():
                pass


def test_host_bulk_access_is_unconstrained():
    iram = IramState()
    iram.load_lut(0, bytes(range(256)))
    assert iram.counters(1) == [0] * 256
    assert [iram._mem[0][k] for k in range(256)] == list(range(256))


def test_counter_overflow():
    iram = IramState()
    with iram.invocation():
        iram.write_counter(0, 0, 0xFFFF)
    with iram.invocation():
        with pytest.raises(CounterOverflow):
            iram.add_counter(0, 0)


def test_counter_bounds_checked():
    iram = IramState()
    with pytest.raises(IndexError):
        iram.read_counter(16, 0)
    with pytest.raises(IndexError):
        iram.read_counter(0, 256)


def test_clear_zeroes_everything():
    iram = IramState()
    with iram.invocation():
        iram.add_counter(4, 4)
    iram.clear()
    assert iram.counters(4) == [0] * 256


# ---------------------------------------------------------------- construction


def test_instruction_is_frozen():
    ei = make_ei()
    with pytest.raises(FrozenInstanceError):
        ei.n_outputs = 2


def test_forbidden_operation_fails_at_construction():
    with pytest.raises(ForbiddenOperation):
        ExtensionInstruction(
            name="bad",
            body=lambda inputs, iram: inputs[:1],
            n_inputs=1,
            n_outputs=1,
            ledger=ResourceLedger(),
            ops_used=frozenset({"add", "sqrt"}),
        )


def test_each_instruction_is_validated_once_at_construction(monkeypatch):
    from scpsim import colorspace, fabric, histeq
    from scpsim.image_io import ImageBuffer

    calls = []
    validate = fabric.ei_validate

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return validate(*args, **kwargs)

    monkeypatch.setattr(fabric, "ei_validate", counting)
    monkeypatch.setattr(colorspace, "ei_validate", counting)
    rgb = ImageBuffer(width=10, height=1, channels=3, samples=np.arange(30, dtype=np.uint8))
    for _ in range(10):
        colorspace.convert_image(rgb, colorspace.RGB2YIQ, "ei5")
    assert len(calls) == 10
    calls.clear()
    gray = ImageBuffer(width=32, height=1, channels=1, samples=np.arange(32, dtype=np.uint8))
    histeq.histeq_image(gray, "isef")
    assert calls == []


@pytest.mark.parametrize("entry", [0, 1, 77, 127])
def test_counter_entry_is_two_little_endian_lut_bytes(entry):
    iram = IramState()
    iram.write_counter(5, entry, 0x0201)
    assert iram.read_lut(5, 2 * entry) == 1
    assert iram.read_lut(5, 2 * entry + 1) == 2
    assert type(iram.read_counter(5, entry)) is int and iram.read_counter(5, entry) == 0x0201
