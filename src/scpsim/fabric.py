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
  ``read_luts``) take every touch of a batch at once and check it per
  invocation row.  Either way a violation raises ``BankConflict``, in
  every build of the simulator.  The bulk accessors skip the per-row
  check in one case: a 1-D vector of distinct banks, one per touch,
  broadcast over every row, as in kernels where lane j owns bank j.
  Every row then touches each of its banks exactly once, so no row can
  break the rule; the 16-bit counter limit is still checked.
* ``ExtensionInstruction`` and its executors.  As on the device, an
  instruction is compiled into the fabric configuration before the
  program runs: the hardware rules (arity limits, the operation
  whitelist, multiplier/ALU/IRAM capacities) are checked once, when the
  instruction is constructed, against its declared resource ledger, and
  the immutable instruction can then be issued any number of times.
  Kernel bodies are ordinary host functions, not interpreted bytecode.
  A batched body runs every invocation of a batch in one call, as the
  fabric runs an instruction's lanes side by side: ``ei_execute_batch``
  issues a whole image's invocations at once, and ``ei_execute`` issues
  one invocation as a batch of one.  A per-register body runs one
  invocation per call, through ``ei_execute`` only.

The fabric is one fixed device, and its capacities are constants:
``MULTIPLIERS`` = 64 multiplier units (8x16 bit), ``ALU_OPS`` = 4096
arithmetic units per stage, and ``IRAM_BYTES`` = 64 KB of embedded RAM,
the 16 banks of 4 KB.  Kernels that declare more than 64 products per
invocation are scheduled over multiple stages; the ALU budget scales
with the stage count.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
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


class IramState:
    """Fabric-local RAM: ``BANK_COUNT`` banks of ``BANK_BYTES`` bytes each.

    The memory is one ``(BANK_COUNT, BANK_BYTES)`` uint8 array.  Counter
    addressing is a little-endian 16-bit view of each bank's first
    ``2 * HIST_ENTRIES`` bytes, so counter entry e occupies bytes 2e and
    2e + 1 of its bank, and table addressing reads the bank's bytes.
    Entry accessors (``read_counter``/``add_counter``/``read_lut``/...)
    are the kernel-visible interface of a per-register body and are
    subject to the one-touch-per-bank-per-invocation rule while an
    invocation is open.  ``add_counters``/``read_luts`` are the same
    accesses for a whole batch of invocations, with the same rule and
    counter limit checked per invocation row.  A ``banks`` argument that
    is a 1-D vector of distinct banks, one per touch, gives every row one
    touch per bank, which the rule always allows, so the row check
    (a sort of every row) is skipped for it; any other ``banks``, a 1-D
    vector with a repeated bank included, gets the full check.  Host
    helpers (``counters``, ``load_luts``) read and write every bank at
    once; they model host-visible fabric plumbing (the composite merge
    and table upload steps) and are not constrained.
    """

    def __init__(self):
        self._mem = np.zeros((BANK_COUNT, BANK_BYTES), dtype=np.uint8)
        self._counters = self._mem[:, : 2 * HIST_ENTRIES].view("<u2")
        #: bank -> entry touched in the current invocation (None outside one)
        self.access_log: Optional[dict[int, int]] = None

    def clear(self):
        self._mem[:] = 0

    # -- invocation bracketing -------------------------------------------

    @contextmanager
    def invocation(self):
        """Open one extension-instruction invocation window.

        Clears the access log on entry; every entry accessor called
        inside the window is checked against the bank rule.
        """
        if self.access_log is not None:
            raise FabricError("IRAM invocation windows cannot nest")
        self.access_log = {}
        try:
            yield self
        finally:
            self.access_log = None

    def _touch(self, bank: int, entry: int):
        if not 0 <= bank < BANK_COUNT:
            raise IndexError(f"bank {bank} out of range 0..{BANK_COUNT - 1}")
        if not 0 <= entry < HIST_ENTRIES:
            raise IndexError(f"entry {entry} out of range 0..{HIST_ENTRIES - 1}")
        if self.access_log is None:
            return
        prev = self.access_log.get(bank)
        if prev is None:
            self.access_log[bank] = entry
        elif prev != entry:
            raise BankConflict(
                f"bank {bank} touched at entries {prev} and {entry} in one invocation"
            )

    # -- 16-bit counter addressing (histogram use) ------------------------

    def read_counter(self, bank: int, entry: int) -> int:
        self._touch(bank, entry)
        return self._counters.item(bank, entry)

    def write_counter(self, bank: int, entry: int, value: int):
        if not 0 <= value <= COUNTER_MAX:
            raise CounterOverflow(f"counter value {value} outside 16-bit range")
        self._touch(bank, entry)
        self._counters[bank, entry] = value

    def add_counter(self, bank: int, entry: int, delta: int = 1) -> int:
        """Read-modify-write of one counter; logged as a single access."""
        value = self.read_counter(bank, entry) + delta
        self.write_counter(bank, entry, value)
        return value

    # -- 8-bit addressing (lookup-table use) -------------------------------

    def read_lut(self, bank: int, entry: int) -> int:
        self._touch(bank, entry)
        return self._mem.item(bank, entry)

    # -- batch access (batched kernel bodies) -------------------------------

    def add_counters(self, banks, entries):
        """Add one to counter (bank, entry) for every touch of every invocation.

        ``banks`` and ``entries`` broadcast to ``(invocations, touches)``;
        row i lists invocation i's touches in lane order.  The bank rule
        and the 16-bit limit are checked for every row before anything is
        written, so a faulty batch leaves the counters unchanged.  A bank
        or entry out of range anywhere in the batch raises IndexError
        first, ahead of any row's fault.
        """
        cells, lanes_own_banks = self._cells(banks, entries)
        before = self._counters.ravel()
        totals = before + np.bincount(cells.ravel(), minlength=before.size)
        self._check_rows(cells, lanes_own_banks, before, totals)
        self._counters[...] = totals.reshape(self._counters.shape)

    def read_luts(self, banks, entries) -> np.ndarray:
        """The 8-bit values at (bank, entry) for every touch of every
        invocation, as an ``(invocations, touches)`` uint8 array; the bank
        rule is checked per row as in ``add_counters``."""
        cells, lanes_own_banks = self._cells(banks, entries)
        self._check_rows(cells, lanes_own_banks)
        return np.take(self._mem[:, :HIST_ENTRIES], cells)

    def _cells(self, banks, entries) -> tuple[np.ndarray, bool]:
        """Cell index bank * HIST_ENTRIES + entry of every touch, range-checked,
        and whether ``banks`` is a vector of distinct banks, one per touch,
        broadcast over every row."""
        banks = np.asarray(banks)
        for what, index, limit in (("bank", banks, BANK_COUNT), ("entry", entries, HIST_ENTRIES)):
            index = np.asarray(index)
            if index.size and not 0 <= index.min() <= index.max() < limit:
                bad = index.min() if index.min() < 0 else index.max()
                raise IndexError(f"{what} {bad} out of range 0..{limit - 1}")
        # 16 bits hold every cell index (BANK_COUNT * HIST_ENTRIES = 4096).
        cells = banks.astype(np.int16, copy=False) * HIST_ENTRIES + entries
        if cells.ndim != 2:
            raise ValueError(f"touches must form an (invocations, touches) array, got {cells.shape}")
        # A set of 16 Python ints is cheaper than np.unique here.
        lanes_own_banks = (
            banks.ndim == 1
            and banks.size == cells.shape[1]
            and len(set(banks.tolist())) == banks.size
        )
        return cells, lanes_own_banks

    @staticmethod
    def _check_rows(cells, lanes_own_banks, before=None, totals=None):
        """Raise the fault of the first invocation row that breaks the bank
        rule or, given the flat counter values ``before`` the batch and the
        ``totals`` it would leave, pushes a counter past ``COUNTER_MAX``.
        When the lanes own their banks no row can break the bank rule, and
        only the counter limit is checked."""
        faulty = [] if lanes_own_banks else IramState._conflict_rows(cells)
        if totals is not None and totals.max() > COUNTER_MAX:
            # The touch that overflows a cell is its (headroom + 1)-th in row-major order.
            flat = cells.ravel()
            order = np.argsort(flat, kind="stable")
            seen = np.arange(flat.size) - np.searchsorted(flat[order], flat[order])
            overflow = order[seen == COUNTER_MAX - before[flat[order]]].min()
            faulty.append(int(overflow) // cells.shape[1])
        if faulty:
            row = min(faulty)
            if before is not None:
                before = before + np.bincount(cells[:row].ravel(), minlength=before.size)
            IramState._replay(row, cells[row].tolist(), before)

    @staticmethod
    def _conflict_rows(cells) -> list[int]:
        """The first row that touches one bank at two entries, as a list of
        at most one row index; sorts every row."""
        ordered = np.sort(cells, axis=1)
        # Neighbours in one bank differ in the entry bits only.
        step = ordered[:, 1:] ^ ordered[:, :-1]
        return np.flatnonzero(((step > 0) & (step < HIST_ENTRIES)).any(axis=1))[:1].tolist()

    @staticmethod
    def _replay(row: int, cells: list, counts):
        """Replay the touches of invocation ``row`` one by one, as the entry
        accessors would, and raise the first fault; ``counts`` (flat counter
        values before the row, or None for reads) is consumed."""
        first: dict[int, int] = {}
        for lane, cell in enumerate(cells):
            bank, entry = divmod(cell, HIST_ENTRIES)
            prev = first.setdefault(bank, entry)
            if prev != entry:
                raise BankConflict(
                    f"invocation {row}, lane {lane}: bank {bank} touched at entries "
                    f"{prev} and {entry}"
                )
            if counts is not None:
                counts[cell] += 1
                if counts[cell] > COUNTER_MAX:
                    raise CounterOverflow(
                        f"invocation {row}, lane {lane}: bank {bank} entry {entry} "
                        f"counter value {counts[cell]} outside 16-bit range"
                    )

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

    def merged_peak(self, other: "ResourceLedger") -> "ResourceLedger":
        """Componentwise peak, for reporting multi-instruction pipelines."""
        return ResourceLedger(
            max(self.multipliers_used, other.multipliers_used),
            max(self.alu_ops_used, other.alu_ops_used),
            max(self.iram_bytes_used, other.iram_bytes_used),
        )


def stage_count(ledger: ResourceLedger) -> int:
    """Stages one invocation needs: ceil(multipliers / MULTIPLIERS), at least one."""
    return max(1, -(-ledger.multipliers_used // MULTIPLIERS))


@dataclass(frozen=True)
class ExtensionInstruction:
    """A custom instruction: a host-level kernel plus its declared needs.

    With ``batched=True`` the body runs a whole batch of invocations in
    one call: ``body(registers, iram)`` receives an ``(invocations,
    n_inputs, 16)`` uint8 array, row i holding invocation i's input
    registers, and the optional IRAM handle, and returns the
    ``(invocations, n_outputs, 16)`` uint8 array of their outputs.  It
    must treat the rows as independent invocations and reach IRAM only
    through the batch accessors (``IramState.add_counters``/``read_luts``),
    which apply the bank rule to each row; it must handle zero rows.
    Every built-in kernel is batched.  Otherwise ``body(inputs, iram)``
    receives one invocation's tuple of ``WideRegister`` inputs and
    returns its output register(s), using the entry accessors inside the
    invocation window ``ei_execute`` opens.  ``ops_used`` names the
    operation kinds the body performs.  Construction runs ``ei_validate``,
    so an instruction that breaks a fabric rule (arity, an operation
    outside the whitelist such as floating point, general division or
    trigonometry, a resource capacity) cannot be built, and an
    instruction that exists is valid.
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


def ei_execute(
    ei: ExtensionInstruction,
    inputs: Sequence[WideRegister],
    iram: Optional[IramState] = None,
    log: Optional[InvocationLog] = None,
) -> tuple[WideRegister, ...]:
    """Run one invocation of an already validated instruction.

    Deterministic: identical (instruction, inputs, IRAM state) yields
    identical outputs and identical IRAM end state.  The input and output
    registers are checked against the declared arity.  A batched
    instruction runs as a batch of one through ``ei_execute_batch``; for
    a per-register body the IRAM access log is cleared at entry and every
    entry access inside the body is checked against the
    one-touch-per-bank rule.
    """
    if len(inputs) != ei.n_inputs:
        raise ArityViolation(f"{ei.name}: expected {ei.n_inputs} inputs, got {len(inputs)}")
    for wr in inputs:
        if not isinstance(wr, WideRegister):
            raise TypeError(f"{ei.name}: inputs must be WideRegister, got {type(wr).__name__}")
    if ei.batched:
        registers = np.frombuffer(b"".join([wr.data for wr in inputs]), dtype=np.uint8)
        outputs = ei_execute_batch(ei, registers.reshape(1, ei.n_inputs, WR_BYTES), iram, log)
        return tuple(WideRegister(row.tobytes()) for row in outputs[0])
    if ei.uses_iram and iram is None:
        raise ValueError(f"{ei.name}: kernel accesses IRAM but no IramState was supplied")

    if iram is not None:
        with iram.invocation():
            result = ei.body(tuple(inputs), iram)
    else:
        result = ei.body(tuple(inputs), None)

    if result is None:
        outputs: tuple[WideRegister, ...] = ()
    elif isinstance(result, WideRegister):
        outputs = (result,)
    else:
        outputs = tuple(result)
    if len(outputs) != ei.n_outputs:
        raise ArityViolation(
            f"{ei.name}: kernel produced {len(outputs)} outputs, declared {ei.n_outputs}"
        )
    for wr in outputs:
        if not isinstance(wr, WideRegister):
            raise TypeError(f"{ei.name}: outputs must be WideRegister")
    if log is not None:
        log.record(ei.name)
    return outputs


def ei_execute_batch(
    ei: ExtensionInstruction,
    registers: np.ndarray,
    iram: Optional[IramState] = None,
    log: Optional[InvocationLog] = None,
) -> np.ndarray:
    """Run ``len(registers)`` invocations of a batched instruction in one call.

    ``registers`` is an ``(invocations, n_inputs, 16)`` uint8 array; the
    result is the ``(invocations, n_outputs, 16)`` uint8 array of every
    invocation's outputs, and ``log`` records ``invocations`` runs.  The
    batch gets every check a single invocation gets: arity, register
    dtype and width, the IRAM handle, and (in the batch accessors) the
    bank rule and counter limit per invocation.  Identical to issuing the
    rows one by one through ``ei_execute``, except that a faulty batch
    raises before it writes IRAM, where one-by-one issue would leave the
    rows before the fault applied.
    """
    if not ei.batched:
        raise TypeError(f"{ei.name}: a per-register body runs one invocation per ei_execute call")
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

    outputs = ei.body(registers, iram)
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
        raise ArityViolation(
            f"{ei.name}: kernel produced {outputs.shape[1]} outputs, declared {ei.n_outputs}"
        )
    if log is not None:
        log.record(ei.name, len(registers))
    return outputs
