from collections import Counter
from dataclasses import FrozenInstanceError, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpsim.fabric import (
    ALU_OPS,
    BANK_COUNT,
    COUNTER_MAX,
    IRAM_BYTES,
    ArityViolation,
    BankConflict,
    CounterOverflow,
    ExtensionInstruction,
    FabricError,
    ForbiddenOperation,
    InvocationLog,
    IramState,
    PackOverflow,
    RangeError,
    ResourceExceeded,
    ResourceLedger,
    ei_execute,
    ei_execute_batch,
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


def test_validate_iram_at_capacity():
    assert ei_validate(make_ei(ledger=ResourceLedger(iram_bytes_used=IRAM_BYTES))) == 1
    with pytest.raises(ResourceExceeded):
        make_ei(ledger=ResourceLedger(iram_bytes_used=IRAM_BYTES + 1))


@pytest.mark.parametrize("multipliers,stages", [(64, 1), (72, 2)])
def test_validate_alu_at_capacity(multipliers, stages):
    budget = ALU_OPS * stages
    assert ei_validate(make_ei(ledger=ResourceLedger(multipliers, budget))) == stages
    with pytest.raises(ResourceExceeded):
        make_ei(ledger=ResourceLedger(multipliers, budget + 1))


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


def test_validate_stage_count_at_the_multiplier_boundaries():
    # One stage holds 64 multipliers; each product past a multiple of 64 opens a stage.
    for multipliers, stages in ((64, 1), (65, 2), (128, 2), (129, 3)):
        assert ei_validate(make_ei(ledger=ResourceLedger(multipliers_used=multipliers))) == stages


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
    assert BANK_COUNT == 16
    assert IRAM_BYTES == 65536


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
    assert all(iram.counters()[bank, 5] == 1 for bank in range(16))


def test_rmw_of_one_entry_counts_once():
    iram = IramState()
    with iram.invocation():
        iram.read_counter(3, 9)
        iram.write_counter(3, 9, 7)
        iram.add_counter(3, 9)
    assert iram.counters()[3, 9] == 8


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
    assert iram.counters()[0, 1] == 1
    assert iram.counters()[0, 2] == 1


def test_invocations_cannot_nest():
    iram = IramState()
    with iram.invocation():
        with pytest.raises(FabricError):
            with iram.invocation():
                pass


def test_host_bulk_access_is_unconstrained():
    iram = IramState()
    tables = np.zeros((16, 256), dtype=np.uint8)
    tables[0] = np.arange(256)
    iram.load_luts(tables)
    assert iram.counters()[1].tolist() == [0] * 256
    assert [iram._mem[0][k] for k in range(256)] == list(range(256))


def test_host_bulk_access_reads_a_copy_and_checks_the_tables():
    iram = IramState()
    iram.add_counters(np.arange(16), np.full((1, 16), 9, dtype=np.uint8))
    counters = iram.counters()
    assert counters.shape == (16, 256) and counters.dtype == np.uint16
    iram.clear()
    assert counters[:, 9].tolist() == [1] * 16
    for bad in (np.zeros(256, np.uint8), np.zeros((16, 255), np.uint8), np.zeros((16, 256), np.int64)):
        with pytest.raises(ValueError):
            iram.load_luts(bad)
    assert not iram._mem.any()


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
    assert iram.counters()[4].tolist() == [0] * 256


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


# ---------------------------------------------------------------- batches


def batch_ei(name="b", body=None, n_inputs=1, n_outputs=1, ops=()):
    if body is None:
        body = lambda registers, iram: registers[:, :n_outputs]
    return ExtensionInstruction(
        name=name,
        body=body,
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        ledger=ResourceLedger(iram_bytes_used=256 if ops else 0),
        ops_used=frozenset(ops),
        batched=True,
    )


def test_batch_runs_every_row_and_logs_them():
    log = InvocationLog()
    registers = np.arange(3 * 16, dtype=np.uint8).reshape(3, 1, 16)
    out = ei_execute_batch(batch_ei(name="probe"), registers, log=log)
    assert np.array_equal(out, registers)
    assert log.counts["probe"] == 3 and log.total == 3


def test_empty_batch_has_no_rows_and_logs_nothing():
    log = InvocationLog()
    out = ei_execute_batch(batch_ei(n_inputs=2), np.zeros((0, 2, 16), np.uint8), log=log)
    assert out.shape == (0, 1, 16)
    assert log.total == 0


def test_batched_instruction_runs_through_ei_execute_as_a_batch_of_one():
    log = InvocationLog()
    ei = batch_ei(body=lambda registers, iram: registers ^ np.uint8(0x5A), n_inputs=2, n_outputs=2)
    a, b = wr_pack(bytes(range(16))), wr_pack(b"\x01")
    out = ei_execute(ei, (a, b), log=log)
    assert out == (wr_pack(bytes(v ^ 0x5A for v in a.data)), wr_pack(bytes(v ^ 0x5A for v in b.data)))
    assert log.total == 1


@pytest.mark.parametrize(
    "registers, error",
    [
        (np.zeros((2, 2, 16), np.uint8), ArityViolation),
        (np.zeros((2, 1, 15), np.uint8), ValueError),
        (np.zeros((2, 16), np.uint8), ValueError),
        (np.zeros((2, 1, 16), np.int64), TypeError),
        ([[bytes(16)]], TypeError),
    ],
)
def test_batch_checks_its_registers(registers, error):
    log = InvocationLog()
    with pytest.raises(error):
        ei_execute_batch(batch_ei(), registers, log=log)
    assert log.total == 0


def test_batch_checks_produced_outputs():
    liar = batch_ei(body=lambda registers, iram: np.concatenate((registers, registers), axis=1))
    with pytest.raises(ArityViolation):
        ei_execute_batch(liar, np.zeros((2, 1, 16), np.uint8))
    wrong_dtype = batch_ei(body=lambda registers, iram: registers.astype(np.int64))
    with pytest.raises(TypeError):
        ei_execute_batch(wrong_dtype, np.zeros((2, 1, 16), np.uint8))
    dropped_row = batch_ei(body=lambda registers, iram: registers[1:])
    with pytest.raises(TypeError):
        ei_execute_batch(dropped_row, np.zeros((2, 1, 16), np.uint8))


def test_batch_requires_iram_when_kernel_uses_it():
    with pytest.raises(ValueError):
        ei_execute_batch(batch_ei(ops=("iram_read",)), np.zeros((1, 1, 16), np.uint8))


def test_batch_rejects_a_per_register_body():
    with pytest.raises(TypeError):
        ei_execute_batch(make_ei(), np.zeros((1, 1, 16), np.uint8))


def test_bank_conflict_names_invocation_lane_bank_and_entries():
    iram = IramState()
    entries = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=np.uint8)
    with pytest.raises(BankConflict, match=r"^invocation 1, lane 2: bank 0 touched at entries 5 and 6$"):
        iram.add_counters([[0, 1, 2], [3, 0, 0], [0, 1, 2]], entries)
    with pytest.raises(BankConflict, match=r"^invocation 2, lane 1: bank 9 touched at entries 7 and 8$"):
        iram.read_luts([[0, 1, 2], [3, 4, 5], [9, 9, 9]], entries)


def test_counter_overflow_names_invocation_bank_and_entry():
    iram = IramState()
    iram.write_counter(4, 200, COUNTER_MAX - 1)
    entries = np.full((3, 16), 200, dtype=np.uint8)
    with pytest.raises(
        CounterOverflow,
        match=r"^invocation 1, lane 4: bank 4 entry 200 counter value 65536 outside 16-bit range$",
    ):
        iram.add_counters(np.arange(16), entries)


def test_bulk_accessor_checks_bounds():
    iram = IramState()
    with pytest.raises(IndexError):
        iram.add_counters([16], np.zeros((1, 1), np.uint8))
    with pytest.raises(IndexError):
        iram.read_luts([0], [[256]])
    with pytest.raises(ValueError):
        iram.read_luts(np.arange(16), np.zeros(16, np.uint8))


def per_entry(iram, banks, entries, counting, values, rows_done):
    """The batch's touches through the entry accessors, one invocation per row."""
    for row_banks, row_entries in zip(*np.broadcast_arrays(banks, entries)):
        with iram.invocation():
            for bank, entry in zip(row_banks.tolist(), row_entries.tolist()):
                if counting:
                    iram.add_counter(bank, entry)
                else:
                    values.append(iram.read_lut(bank, entry))
        rows_done.append(1)


def error_of(fn):
    try:
        fn()
    except FabricError as exc:
        return exc
    return None


@pytest.mark.parametrize("counting", [True, False])
def test_one_bad_row_raises_before_writing(counting):
    banks = np.tile(np.arange(16), (5, 1))
    banks[3, 9] = 2  # lane 9 of invocation 3 reaches into lane 2's bank
    entries = np.arange(80, dtype=np.uint8).reshape(5, 16)
    iram = IramState()
    tables = np.zeros((16, 256), dtype=np.uint8)
    tables[2] = np.arange(255, -1, -1)
    iram.load_luts(tables)
    before = iram._mem.copy()
    accessor = iram.add_counters if counting else iram.read_luts
    with pytest.raises(BankConflict, match="^invocation 3, lane 9: bank 2 touched at entries 50 and 57$"):
        accessor(banks, entries)
    assert np.array_equal(iram._mem, before)
    rows_done = []
    with pytest.raises(BankConflict):
        per_entry(iram, banks, entries, counting, [], rows_done)
    assert len(rows_done) == 3


touch_batches = st.tuples(
    st.integers(0, 6), st.integers(1, 5), st.integers(0, 2**32 - 1), st.sampled_from((2, 4, 16))
)
#: How the batch names its banks: one row per invocation, or one vector
#: broadcast over every row, its banks distinct or not, or a single bank
#: broadcast over every touch.
bank_layouts = st.sampled_from(("rows", "distinct", "repeated", "single"))


@settings(max_examples=200, deadline=None)
@given(shape=touch_batches, layout=bank_layouts, counting=st.booleans(), near_full=st.booleans())
def test_bulk_accessors_equal_the_entry_accessors(shape, layout, counting, near_full):
    # Few banks and entries make conflicts likely; counters near 65535 make overflows likely.
    invocations, touches, seed, spread = shape
    rng = np.random.default_rng(seed)
    if layout == "rows":
        banks = rng.integers(0, spread, (invocations, touches))
    elif layout == "distinct":
        banks = rng.permutation(16)[:touches]
    elif layout == "repeated":
        banks = rng.integers(0, spread, touches)
        banks[-1] = banks[0]
    else:
        banks = rng.integers(0, spread, 1)
    entries = rng.integers(0, spread, (invocations, touches)).astype(np.uint8)
    start = IramState()
    start._mem[:] = rng.integers(0, 256, start._mem.shape, dtype=np.uint8)
    if near_full:
        start._counters[:, :16] = COUNTER_MAX - rng.integers(0, 3, (16, 16))
    bulk, oracle = IramState(), IramState()
    bulk._mem[:] = oracle._mem[:] = start._mem
    accessor = bulk.add_counters if counting else bulk.read_luts
    got = error_of(lambda: accessor(banks, entries))
    values, rows_done = [], []
    want = error_of(lambda: per_entry(oracle, banks, entries, counting, values, rows_done))
    assert type(got) is type(want)
    if want is None:
        assert np.array_equal(bulk._mem, oracle._mem)
        if not counting:
            assert bulk.read_luts(banks, entries).ravel().tolist() == values
    else:
        # The batch names the row that failed one by one, and writes nothing.
        assert str(got).startswith(f"invocation {len(rows_done)}, lane ")
        assert np.array_equal(bulk._mem, start._mem)


def test_lanes_that_own_their_banks_skip_the_row_sort(monkeypatch):
    # The sort is what the per-row bank check costs; lane j owning bank j cannot break the rule.
    from scpsim import histeq
    from scpsim.image_io import ImageBuffer

    sorts = []
    conflict_rows = IramState._conflict_rows

    def counted(cells):
        sorts.append(cells.shape)
        return conflict_rows(cells)

    monkeypatch.setattr(IramState, "_conflict_rows", staticmethod(counted))
    gray = ImageBuffer.from_array(np.random.default_rng(4).integers(0, 256, (128, 128), dtype=np.uint8))
    equalized = [histeq.histeq_image(gray, mode)[0].samples for mode in ("isef", "scalar")]
    assert np.array_equal(*equalized)
    assert sorts == []
    iram = IramState()
    entries = np.zeros((4, 16), dtype=np.uint8)
    iram.add_counters(np.tile(np.arange(16), (4, 1)), entries)
    iram.read_luts(np.tile(np.arange(16), (4, 1)), entries)
    assert sorts == [(4, 16), (4, 16)]
    with pytest.raises(BankConflict, match="^invocation 0, lane 1: bank 3 touched at entries 1 and 2$"):
        iram.read_luts([3, 3], [[1, 2]])
    assert len(sorts) == 3


def test_each_image_runs_each_kernel_body_once_per_batch(monkeypatch):
    # A kernel that fell back to one body call per invocation would show here, not in a timing.
    from scpsim import colorspace, cycle_model, histeq
    from scpsim.image_io import ImageBuffer

    calls = Counter()

    def counted(ei):
        body = ei.body

        def counting(registers, iram):
            calls[ei.name] += 1
            return body(registers, iram)

        return replace(ei, body=counting)

    build = colorspace.matrix_ei
    monkeypatch.setattr(colorspace, "matrix_ei", lambda matrix, lanes: counted(build(matrix, lanes)))
    monkeypatch.setattr(histeq, "_SUBHIST_EI", counted(histeq._SUBHIST_EI))
    monkeypatch.setattr(histeq, "_TRANSFORM_EI", counted(histeq._TRANSFORM_EI))
    profile = cycle_model.builtin_profile()
    rng = np.random.default_rng(12)
    rgb = ImageBuffer.from_array(rng.integers(0, 256, (200, 320, 3), dtype=np.uint8))
    gray = ImageBuffer.from_array(rng.integers(0, 256, (128, 128), dtype=np.uint8))
    constant = ImageBuffer.from_array(np.full((1024, 1024), 42, dtype=np.uint8))
    runs = [
        (partial(colorspace.convert_image, rgb, colorspace.RGB2YIQ, "ei1"), {"rgb2yiq_x1": 1}),
        (partial(colorspace.convert_image, rgb, colorspace.RGB2YIQ, "ei5"), {"rgb2yiq_x5": 1}),
        (partial(colorspace.convert_image, rgb, colorspace.RGB2YIQ, "ei8"), {"rgb2yiq_x8": 1}),
        (partial(histeq.histeq_image, gray, "isef"), {"subhist16": 1, "lut16": 1}),
        # two counter-flush windows
        (partial(histeq.histeq_image, constant, "isef"), {"subhist16": 2, "lut16": 1}),
    ]
    for run, bodies in runs:
        calls.clear()
        log = InvocationLog()
        _, report = run(profile=profile, log=log)
        assert calls == bodies
        assert log.total == report.ei_invocations == cycle_model.estimate(
            report.kernel, report.mode, report.pixels, profile
        ).ei_invocations
