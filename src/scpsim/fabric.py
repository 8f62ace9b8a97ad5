"""Execution model of the software-configurable fabric.

The fabric owns three things:

* ``WideRegister`` -- the immutable 16-byte conduit between processor
  and fabric.  Packing and unpacking registers is free in the cost
  model; capacity violations raise at pack time.  A batch of
  invocations carries its registers as one ``(invocations, registers,
  16)`` uint8 array instead, row i holding invocation i's registers.
* ``IramState`` -- fabric-local memory, 16 banks of 4 KB held in one
  byte array.  A bank can be addressed as 256 16-bit counters (histogram
  use) or as 256 8-bit values (table lookup use).  Within one
  extension-instruction invocation each bank may be touched at most
  once; a read-modify-write of a single entry counts as one touch.
  The per-entry accessors check the rule touch by touch inside an
  invocation window; the bulk accessors (``add_counters``,
  ``read_luts``) take every touch of a batch at once, detect a fault in
  bulk, and name it by replaying the batch touch by touch through the
  same rules.  So a violation raises the same ``BankConflict`` either
  way, in every build of the simulator.  ``LANE_BANKS`` states the
  layout in which lane j owns bank j; see it for the checks its
  construction proves.
* ``ExtensionInstruction`` and its one executor.  As on the device, an
  instruction is compiled into the fabric configuration before the
  program runs: the hardware rules (arity limits, the operation
  whitelist, multiplier/ALU/IRAM capacities) are checked once, when the
  instruction is constructed, against its declared resource ledger, and
  the immutable instruction can then be issued any number of times, one
  invocation or many at a time: ``ei_execute_batch`` issues every batch,
  and ``ei_execute`` is a batch of one.  Kernel bodies are ordinary host
  functions.  A batched body runs a whole batch in one call, as the
  fabric runs an instruction's lanes side by side; a per-register body
  runs row by row, each row in its own IRAM window.  On a fault, a
  per-register batch has already written the rows before it, while a
  batched body's bulk accessors raise before anything is written.

The fabric is one fixed device, and its capacities are constants:
``MULTIPLIERS`` = 64 multiplier units (8x16 bit), ``ALU_OPS`` = 4096
arithmetic units per stage, and ``IRAM_BYTES`` = 64 KB of embedded RAM,
the 16 banks of 4 KB.  Kernels that declare more than 64 products per
invocation are scheduled over multiple stages; the ALU budget scales
with the stage count.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

WR_BYTES = 16
MAX_INPUTS = 3
MAX_OUTPUTS = 2

#: Operation kinds a kernel body may declare.  Floating point, general
#: division and trigonometry have no entry here and can never validate.
ALLOWED_OPS = frozenset(
    {"add", "sub", "mul", "shift", "compare", "select", "iram_read", "iram_write"}
)


class FabricError(Exception):
    """Base class for every fabric constraint violation."""


class PackOverflow(FabricError):
    """More than 16 bytes offered to a wide register."""


class RangeError(FabricError):
    """Wide-register slice outside the 16-byte window."""


class ArityViolation(FabricError):
    """Extension instruction exceeds 3 inputs / 2 outputs."""


class ForbiddenOperation(FabricError):
    """Kernel declares an operation the fabric cannot perform."""


class ResourceExceeded(FabricError):
    """ALU or IRAM demand beyond capacity at any stage count."""


class BankConflict(FabricError):
    """An IRAM bank touched twice within one invocation."""


class CounterOverflow(FabricError):
    """A 16-bit histogram counter pushed past 65535."""


@dataclass(frozen=True)
class WideRegister:
    """128-bit register: exactly 16 unsigned bytes, immutable."""

    data: bytes

    def __post_init__(self):
        if not isinstance(self.data, bytes):
            object.__setattr__(self, "data", bytes(self.data))
        if len(self.data) != WR_BYTES:
            raise ValueError(f"wide register holds {WR_BYTES} bytes, got {len(self.data)}")

    def __repr__(self):
        return f"WideRegister({self.data.hex()})"


def wr_pack(data: Iterable[int] | bytes) -> WideRegister:
    """Pack up to 16 bytes into a wide register, zero-filling the tail.

    Charged zero cycles by the cost model; the fabric packs and unpacks
    register traffic for free.
    """
    buf = bytes(data)
    if len(buf) > WR_BYTES:
        raise PackOverflow(f"cannot pack {len(buf)} bytes into a {WR_BYTES}-byte register")
    return WideRegister(buf + bytes(WR_BYTES - len(buf)))


def wr_unpack(wr: WideRegister, offset: int, length: int) -> bytes:
    """Read ``length`` bytes starting at ``offset``."""
    if offset < 0 or length < 0 or offset + length > WR_BYTES:
        raise RangeError(f"slice [{offset}, {offset + length}) outside 16-byte register")
    return wr.data[offset : offset + length]


# ---------------------------------------------------------------------------
# Banked IRAM
# ---------------------------------------------------------------------------

BANK_COUNT = 16
BANK_BYTES = 4096
HIST_ENTRIES = 256
COUNTER_MAX = 0xFFFF

#: Capacities of the fabric: multiplier units, ALU ops per stage, IRAM bytes.
MULTIPLIERS = 64
ALU_OPS = 4096
IRAM_BYTES = BANK_COUNT * BANK_BYTES

#: Lane j owns bank j: the bank of every touch of a 16-lane invocation,
#: so each bank is touched exactly once.  The bulk accessors know this
#: array by identity and skip only what its construction proves, the bank
#: range check and the per-row bank-rule sort; any other ``banks``, an
#: equal copy included, gets both.  Read-only, so the proof cannot go stale.
LANE_BANKS = np.arange(BANK_COUNT)
LANE_BANKS.flags.writeable = False


def _check_range(what: str, low, high, limit: int):
    """Raise IndexError naming the first bad value when values whose least
    is ``low`` and greatest ``high`` leave 0..limit - 1; a scalar is both."""
    if not 0 <= low <= high < limit:
        raise IndexError(f"{what} {low if low < 0 else high} out of range 0..{limit - 1}")


def _bank_rule(first: dict[int, int], bank: int, entry: int):
    """Log a touch in ``first`` (bank -> first entry); a second entry raises BankConflict."""
    prev = first.setdefault(bank, entry)
    if prev != entry:
        raise BankConflict(f"bank {bank} touched at entries {prev} and {entry}")


def _counter_limit(bank: int, entry: int, value: int):
    """Raise CounterOverflow when a count of ``value`` passes counter (bank, entry)'s 16 bits."""
    if value > COUNTER_MAX:
        raise CounterOverflow(
            f"bank {bank} entry {entry} counter value {value} outside 16-bit range"
        )


class IramState:
    """Fabric-local RAM: ``BANK_COUNT`` banks of ``BANK_BYTES`` bytes each.

    The memory is one ``(BANK_COUNT, BANK_BYTES)`` uint8 array.  Counter
    addressing is a little-endian 16-bit view of each bank's first
    ``2 * HIST_ENTRIES`` bytes, so counter entry e occupies bytes 2e and
    2e + 1 of its bank, and table addressing reads the bank's bytes.
    Entry accessors (``read_counter``/``add_counter``/``read_lut``) are
    the kernel-visible interface of a per-register body and are
    subject to the one-touch-per-bank-per-invocation rule while an
    invocation is open.  ``add_counters``/``read_luts`` are the same
    accesses for a whole batch of invocations: they detect a bank-rule
    or counter-limit fault in bulk, less what ``LANE_BANKS`` proves, and
    only then replay the batch touch by touch (``_replay``) to name the
    first fault's invocation and lane.  Banks and entries are
    range-checked, except uint8 ``entries``: no uint8 value reaches
    ``HIST_ENTRIES`` (256), so the dtype proves them in range.  uint8 ``banks`` are still checked,
    against ``BANK_COUNT`` (16).  Host helpers (``counters``,
    ``load_luts``) read and write every bank at once; they model
    host-visible fabric plumbing (the composite merge and table upload
    steps) and are not constrained.
    """

    def __init__(self):
        self._mem = np.zeros((BANK_COUNT, BANK_BYTES), dtype=np.uint8)
        self._counters = self._mem[:, : 2 * HIST_ENTRIES].view("<u2")
        #: bank -> entry touched in the current invocation (None outside one)
        self._access_log: Optional[dict[int, int]] = None

    def clear(self):
        self._mem[:] = 0

    # -- invocation bracketing -------------------------------------------

    @contextmanager
    def invocation(self):
        """Open one extension-instruction invocation window.

        Clears the access log on entry; every entry accessor called
        inside the window is checked against the bank rule.
        """
        if self._access_log is not None:
            raise FabricError("IRAM invocation windows cannot nest")
        self._access_log = {}
        try:
            yield self
        finally:
            self._access_log = None

    def _touch(self, bank: int, entry: int):
        _check_range("bank", bank, bank, BANK_COUNT)
        _check_range("entry", entry, entry, HIST_ENTRIES)
        if self._access_log is not None:
            _bank_rule(self._access_log, bank, entry)

    # -- 16-bit counter addressing (histogram use) ------------------------

    def read_counter(self, bank: int, entry: int) -> int:
        self._touch(bank, entry)
        return self._counters.item(bank, entry)

    def add_counter(self, bank: int, entry: int) -> int:
        """Add one to a counter by read-modify-write, one touch, and return
        the new count; faults in ``_replay``'s order: range, bank rule, limit."""
        self._touch(bank, entry)
        value = self._counters.item(bank, entry) + 1
        _counter_limit(bank, entry, value)
        self._counters[bank, entry] = value
        return value

    # -- 8-bit addressing (lookup-table use) -------------------------------

    def read_lut(self, bank: int, entry: int) -> int:
        self._touch(bank, entry)
        return self._mem.item(bank, entry)

    # -- batch access (batched kernel bodies) -------------------------------

    def add_counters(self, banks, entries):
        """Add one to counter (bank, entry) for every touch of every invocation.

        ``banks`` and ``entries`` broadcast to ``(invocations, touches)``;
        row i lists invocation i's touches in lane order.  A bank rule or
        16-bit limit fault anywhere in the batch is detected before anything
        is written, so a faulty batch leaves the counters unchanged.  A bank
        or entry out of range anywhere in the batch raises IndexError
        first, ahead of any row's fault.
        """
        cells = self._cells(banks, entries)
        before = self._counters.ravel()
        totals = np.bincount(cells.ravel(), minlength=before.size)
        totals += before
        if totals.max() > COUNTER_MAX or (banks is not LANE_BANKS and self._conflicts(cells)):
            self._replay(cells, before.tolist())
        self._counters[...] = totals.reshape(self._counters.shape)

    def read_luts(self, banks, entries) -> np.ndarray:
        """The 8-bit values at (bank, entry) for every touch of every
        invocation, as an ``(invocations, touches)`` uint8 array; the bank
        rule is checked as in ``add_counters``."""
        cells = self._cells(banks, entries)
        if banks is not LANE_BANKS and self._conflicts(cells):
            self._replay(cells)
        return np.take(self._mem[:, :HIST_ENTRIES], cells)

    def _cells(self, banks, entries) -> np.ndarray:
        """Cell index bank * HIST_ENTRIES + entry of every touch, range-checked
        (``LANE_BANKS`` is in range by construction)."""
        if banks is not LANE_BANKS:
            banks = np.asarray(banks)
            if banks.size:
                _check_range("bank", banks.min(), banks.max(), BANK_COUNT)
        entries = np.asarray(entries)
        if entries.size and entries.dtype != np.uint8:  # every uint8 entry is below HIST_ENTRIES
            _check_range("entry", entries.min(), entries.max(), HIST_ENTRIES)
        # 16 bits hold every cell index (BANK_COUNT * HIST_ENTRIES = 4096).
        cells = np.add(np.multiply(banks, HIST_ENTRIES, dtype=np.int16), entries, dtype=np.int16)
        if cells.ndim != 2:
            raise ValueError(f"touches must form an (invocations, touches) array, got {cells.shape}")
        return cells

    @staticmethod
    def _conflicts(cells) -> bool:
        """Whether any row touches one bank at two entries; sorts every row."""
        ordered = np.sort(cells, axis=1)
        # Neighbours in one bank differ in the entry bits only.
        step = ordered[:, 1:] ^ ordered[:, :-1]
        return bool(((step > 0) & (step < HIST_ENTRIES)).any())

    @staticmethod
    def _replay(cells, counts=None):
        """Issue a faulty batch touch by touch, in row-major order, through the
        entry accessors' rules and raise the first fault, naming its invocation
        and lane; ``counts`` (flat counter values before the batch, or None for
        reads) is consumed and carried across rows."""
        for row, touches in enumerate(cells.tolist()):
            first: dict[int, int] = {}
            for lane, cell in enumerate(touches):
                bank, entry = divmod(cell, HIST_ENTRIES)
                try:
                    _bank_rule(first, bank, entry)
                    if counts is not None:
                        counts[cell] += 1
                        _counter_limit(bank, entry, counts[cell])
                except FabricError as exc:
                    raise type(exc)(f"invocation {row}, lane {lane}: {exc}") from None

    # -- host-visible bulk access ------------------------------------------

    def counters(self) -> np.ndarray:
        """Every counter, as a ``(BANK_COUNT, HIST_ENTRIES)`` uint16 copy
        (host-side bulk read)."""
        return self._counters.copy()

    def load_luts(self, tables: np.ndarray):
        """Upload one 256-entry table into each bank (host-side bulk write):
        ``tables`` is a ``(BANK_COUNT, HIST_ENTRIES)`` uint8 array."""
        tables = np.asarray(tables)
        if tables.dtype != np.uint8 or tables.shape != (BANK_COUNT, HIST_ENTRIES):
            raise ValueError(
                f"LUT upload needs a uint8 ({BANK_COUNT}, {HIST_ENTRIES}) array, "
                f"got {tables.dtype} {tables.shape}"
            )
        self._mem[:, :HIST_ENTRIES] = tables


# ---------------------------------------------------------------------------
# Extension instructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResourceLedger:
    """Per-invocation resource demand declared by a kernel."""

    multipliers_used: int = 0
    alu_ops_used: int = 0
    iram_bytes_used: int = 0

    def __post_init__(self):
        if min(self.multipliers_used, self.alu_ops_used, self.iram_bytes_used) < 0:
            raise ValueError("resource counts cannot be negative")


def stage_count(ledger: ResourceLedger) -> int:
    """Stages one invocation needs: ceil(multipliers / MULTIPLIERS), at least one."""
    return max(1, -(-ledger.multipliers_used // MULTIPLIERS))


@dataclass(frozen=True)
class ExtensionInstruction:
    """A custom instruction: a host-level kernel plus its declared needs.

    Either kind of body can be issued one invocation or many at a time.
    A batched body (``batched=True``, as every built-in kernel is) runs a
    whole batch in one call: ``body(registers, iram)`` receives an
    ``(invocations, n_inputs, 16)`` uint8 array, row i holding invocation
    i's input registers, and the optional IRAM handle, and returns the
    ``(invocations, n_outputs, 16)`` uint8 array of their outputs.  It
    must treat the rows as independent invocations, handle zero rows and
    reach IRAM only through the batch accessors, which apply the bank
    rule to each row.  A per-register body runs once per row:
    ``body(inputs, iram)`` gets the row's tuple of ``WideRegister``
    inputs, reaches IRAM through the entry accessors inside the row's
    window, and returns a register, a sequence of them or None.
    ``ops_used`` names the operation kinds the body performs.
    Construction runs ``ei_validate``, so an instruction that breaks a
    fabric rule (arity, an operation outside the whitelist such as
    floating point, general division or trigonometry, a resource
    capacity) cannot be built, and an instruction that exists is valid.
    It is frozen: nothing can change it between validation and issue.
    """

    name: str
    body: Callable
    n_inputs: int
    n_outputs: int
    ledger: ResourceLedger
    ops_used: frozenset = frozenset()
    batched: bool = False

    def __post_init__(self):
        ei_validate(self)

    @property
    def uses_iram(self) -> bool:
        return bool(self.ops_used & {"iram_read", "iram_write"})


class InvocationLog:
    """Counts executed invocations per instruction name."""

    def __init__(self):
        self.counts = Counter()

    def record(self, name: str, count: int = 1):
        self.counts[name] += count

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def ei_validate(ei: ExtensionInstruction) -> int:
    """Check an instruction against the fabric rules; return its stage count.

    Every instruction passes this when it is constructed, against the one
    fixed fabric; there is no other capacity to check it against, so call
    it only to read the stage count.  Stage count is ceil(multipliers /
    ``MULTIPLIERS``) with a floor of one; the ALU budget is ``ALU_OPS`` per
    stage and the IRAM budget ``IRAM_BYTES``.
    """
    if ei.n_inputs > MAX_INPUTS or ei.n_inputs < 0:
        raise ArityViolation(f"{ei.name}: {ei.n_inputs} inputs exceeds limit of {MAX_INPUTS}")
    if ei.n_outputs > MAX_OUTPUTS or ei.n_outputs < 0:
        raise ArityViolation(f"{ei.name}: {ei.n_outputs} outputs exceeds limit of {MAX_OUTPUTS}")
    bad = set(ei.ops_used) - ALLOWED_OPS
    if bad:
        raise ForbiddenOperation(f"{ei.name}: operations not supported by the fabric: {sorted(bad)}")
    led = ei.ledger
    stages = stage_count(led)
    if led.iram_bytes_used > IRAM_BYTES:
        raise ResourceExceeded(
            f"{ei.name}: {led.iram_bytes_used} IRAM bytes exceeds {IRAM_BYTES}"
        )
    if led.alu_ops_used > ALU_OPS * stages:
        raise ResourceExceeded(
            f"{ei.name}: {led.alu_ops_used} ALU ops exceeds {ALU_OPS} x {stages} stage(s)"
        )
    return stages


def _run_rows(ei: ExtensionInstruction, registers: np.ndarray, iram: Optional[IramState]) -> np.ndarray:
    """A per-register body's batch: each row runs as one invocation on
    ``WideRegister`` inputs, in its own IRAM window, and its outputs,
    checked to be ``WideRegister``s, are packed as that row of the result.
    A row whose output count differs from the first row's ends the result
    there, a row short."""
    width = registers.shape[1] * WR_BYTES
    data = registers.tobytes()
    rows = []
    for i in range(len(registers)):
        row = data[i * width : (i + 1) * width]
        inputs = tuple(WideRegister(row[k : k + WR_BYTES]) for k in range(0, width, WR_BYTES))
        with nullcontext() if iram is None else iram.invocation():
            result = ei.body(inputs, iram)
        outputs = () if result is None else (result,) if isinstance(result, WideRegister) else tuple(result)
        if not all(isinstance(wr, WideRegister) for wr in outputs):
            raise TypeError(f"{ei.name}: outputs must be WideRegister")
        packed = b"".join([wr.data for wr in outputs])
        if rows and len(packed) != len(rows[0]):
            break  # no rectangular result: ei_execute_batch rejects the short one
        rows.append(packed)
    count = len(rows[0]) // WR_BYTES if rows else ei.n_outputs
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), count, WR_BYTES)


def ei_execute(
    ei: ExtensionInstruction,
    inputs: Sequence[WideRegister],
    iram: Optional[IramState] = None,
    log: Optional[InvocationLog] = None,
) -> tuple[WideRegister, ...]:
    """Run one invocation of an instruction, of either kind, as a batch of one.

    The ``WideRegister`` inputs are packed as a ``(1, n_inputs, 16)``
    batch and issued through ``ei_execute_batch``, which makes every other
    check and records the run; its one row is unpacked into
    ``WideRegister`` outputs.  Deterministic: identical (instruction,
    inputs, IRAM state) yields identical outputs and IRAM end state.
    """
    for wr in inputs:
        if not isinstance(wr, WideRegister):
            raise TypeError(f"{ei.name}: inputs must be WideRegister, got {type(wr).__name__}")
    registers = np.frombuffer(b"".join([wr.data for wr in inputs]), dtype=np.uint8)
    outputs = ei_execute_batch(ei, registers.reshape(1, len(inputs), WR_BYTES), iram, log)
    data = outputs[0].tobytes()
    return tuple(WideRegister(data[k : k + WR_BYTES]) for k in range(0, len(data), WR_BYTES))


def ei_execute_batch(
    ei: ExtensionInstruction,
    registers: np.ndarray,
    iram: Optional[IramState] = None,
    log: Optional[InvocationLog] = None,
) -> np.ndarray:
    """Run ``len(registers)`` invocations of an instruction; every issue runs here.

    ``registers`` is an ``(invocations, n_inputs, 16)`` uint8 array; the
    result is the ``(invocations, n_outputs, 16)`` uint8 array of every
    invocation's outputs, and ``log`` records ``invocations`` runs.  The
    registers and the IRAM handle are checked before the body runs, the
    outputs after it.  A batched body runs the batch in one call, a
    per-register body row by row, each row in its own IRAM window.  The
    bank rule and counter limit hold per invocation, and a fault is the
    one that issuing the rows one by one raises; but a per-register batch
    has already written the rows before it, while a batched body's bulk
    accessors raise before anything is written.
    """
    if not isinstance(registers, np.ndarray) or registers.dtype != np.uint8:
        raise TypeError(f"{ei.name}: registers must be a uint8 array")
    if registers.ndim != 3 or registers.shape[2] != WR_BYTES:
        raise ValueError(
            f"{ei.name}: registers must form an (invocations, inputs, {WR_BYTES}) array, "
            f"got {registers.shape}"
        )
    if registers.shape[1] != ei.n_inputs:
        raise ArityViolation(f"{ei.name}: expected {ei.n_inputs} inputs, got {registers.shape[1]}")
    if ei.uses_iram and iram is None:
        raise ValueError(f"{ei.name}: kernel accesses IRAM but no IramState was supplied")
    outputs = ei.body(registers, iram) if ei.batched else _run_rows(ei, registers, iram)
    if (
        not isinstance(outputs, np.ndarray)
        or outputs.dtype != np.uint8
        or outputs.ndim != 3
        or outputs.shape[0] != len(registers)
        or outputs.shape[2] != WR_BYTES
    ):
        raise TypeError(
            f"{ei.name}: outputs must be a uint8 ({len(registers)}, outputs, {WR_BYTES}) array"
        )
    if outputs.shape[1] != ei.n_outputs:
        raise ArityViolation(f"{ei.name}: kernel produced {outputs.shape[1]} outputs, declared {ei.n_outputs}")
    if log is not None:
        log.record(ei.name, len(registers))
    return outputs
