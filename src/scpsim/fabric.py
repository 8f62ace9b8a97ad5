"""Execution model of the software-configurable fabric.

The fabric owns three things:

* ``WideRegister`` -- the immutable 16-byte conduit between processor
  and fabric.  Packing and unpacking registers is free in the cost
  model; capacity violations raise at pack time.
* ``IramState`` -- fabric-local memory, 16 banks of 4 KB.
  A bank can be addressed as 256 16-bit counters (histogram use) or as
  256 8-bit values (table lookup use).  Within one extension-instruction
  invocation each bank may be touched at most once; a read-modify-write
  of a single entry counts as one touch.  Violations raise
  ``BankConflict`` on the spot, in every build of the simulator.
* ``ExtensionInstruction`` and its validating executor.  Kernel bodies
  are ordinary host functions; the hardware rules (arity limits, the
  operation whitelist, multiplier/ALU/IRAM capacities) are enforced by
  the validator against the instruction's declared resource ledger, not
  by interpreting a bytecode.

Capacity defaults mirror the modeled device: 64 multiplier units (8x16
bit), 4096 arithmetic units per stage, 64 KB of embedded RAM.  Kernels
that declare more than 64 products per invocation are scheduled over
multiple stages; the ALU budget scales with the stage count.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

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

    def __getitem__(self, idx):
        return self.data[idx]

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


class IramState:
    """Fabric-local RAM: ``BANK_COUNT`` banks of ``BANK_BYTES`` bytes each.

    Entry accessors (``read_counter``/``add_counter``/``read_lut``/...)
    are the kernel-visible interface and are subject to the
    one-touch-per-bank-per-invocation rule while an invocation is open.
    Bulk helpers (``counters``, ``load_lut``) model host-visible fabric
    plumbing (the composite merge and table upload steps) and are not
    constrained.
    """

    def __init__(self):
        # An instance attribute, not a class one: _touch reads it on every
        # entry access, and the instance lookup is the faster of the two.
        self.banks = BANK_COUNT
        self._mem = [bytearray(BANK_BYTES) for _ in range(BANK_COUNT)]
        #: bank -> entry touched in the current invocation (None outside one)
        self.access_log: Optional[dict[int, int]] = None

    @property
    def total_bytes(self) -> int:
        return BANK_COUNT * BANK_BYTES

    def clear(self):
        for bank in self._mem:
            bank[:] = bytes(BANK_BYTES)

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
        if not 0 <= bank < self.banks:
            raise IndexError(f"bank {bank} out of range 0..{self.banks - 1}")
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
        off = 2 * entry
        return int.from_bytes(self._mem[bank][off : off + 2], "little")

    def write_counter(self, bank: int, entry: int, value: int):
        if not 0 <= value <= COUNTER_MAX:
            raise CounterOverflow(f"counter value {value} outside 16-bit range")
        self._touch(bank, entry)
        off = 2 * entry
        self._mem[bank][off : off + 2] = value.to_bytes(2, "little")

    def add_counter(self, bank: int, entry: int, delta: int = 1) -> int:
        """Read-modify-write of one counter; logged as a single access."""
        value = self.read_counter(bank, entry) + delta
        self.write_counter(bank, entry, value)
        return value

    # -- 8-bit addressing (lookup-table use) -------------------------------

    def read_lut(self, bank: int, entry: int) -> int:
        self._touch(bank, entry)
        return self._mem[bank][entry]

    # -- host-visible bulk access ------------------------------------------

    def counters(self, bank: int) -> list[int]:
        """All 256 counters of one bank (host-side bulk read)."""
        if not 0 <= bank < self.banks:
            raise IndexError(f"bank {bank} out of range 0..{self.banks - 1}")
        mem = self._mem[bank]
        return [int.from_bytes(mem[2 * e : 2 * e + 2], "little") for e in range(HIST_ENTRIES)]

    def load_lut(self, bank: int, values: Sequence[int]):
        """Upload a full 256-entry table into one bank (host-side bulk write)."""
        if not 0 <= bank < self.banks:
            raise IndexError(f"bank {bank} out of range 0..{self.banks - 1}")
        buf = bytes(values)
        if len(buf) != HIST_ENTRIES:
            raise ValueError(f"LUT upload needs {HIST_ENTRIES} bytes, got {len(buf)}")
        self._mem[bank][:HIST_ENTRIES] = buf


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


@dataclass(frozen=True)
class FabricCapacity:
    """Resource capacities of the configurable fabric."""

    multipliers: int = 64
    alu_ops: int = 4096
    iram_bytes: int = 65536


DEFAULT_CAPACITY = FabricCapacity()


def stage_count(ledger: ResourceLedger, capacity: FabricCapacity = DEFAULT_CAPACITY) -> int:
    """Stages one invocation needs: ceil(multipliers / capacity), at least one."""
    return max(1, -(-ledger.multipliers_used // capacity.multipliers))


@dataclass
class ExtensionInstruction:
    """A custom instruction: a host-level kernel plus its declared needs.

    ``body(inputs, iram)`` receives a tuple of input registers and the
    optional IRAM handle and returns the output register(s).  ``ops_used``
    names the operation kinds the body performs; the validator rejects
    anything outside the whitelist (no floating point, no general
    division, no trigonometry).
    """

    name: str
    body: Callable
    n_inputs: int
    n_outputs: int
    ledger: ResourceLedger
    ops_used: frozenset = frozenset()
    #: Set by ei_execute once the instruction passed ei_validate at DEFAULT_CAPACITY.
    _validated: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def uses_iram(self) -> bool:
        return bool(self.ops_used & {"iram_read", "iram_write"})


class InvocationLog:
    """Counts executed invocations per instruction name."""

    def __init__(self):
        self.counts = Counter()

    def record(self, name: str):
        self.counts[name] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def ei_validate(
    ei: ExtensionInstruction, capacity: FabricCapacity = DEFAULT_CAPACITY
) -> int:
    """Check an instruction against the fabric rules; return its stage count.

    Stage count is ceil(multipliers / capacity) with a floor of one;
    the ALU budget is one full complement per stage.
    """
    if ei.n_inputs > MAX_INPUTS or ei.n_inputs < 0:
        raise ArityViolation(f"{ei.name}: {ei.n_inputs} inputs exceeds limit of {MAX_INPUTS}")
    if ei.n_outputs > MAX_OUTPUTS or ei.n_outputs < 0:
        raise ArityViolation(f"{ei.name}: {ei.n_outputs} outputs exceeds limit of {MAX_OUTPUTS}")
    bad = set(ei.ops_used) - ALLOWED_OPS
    if bad:
        raise ForbiddenOperation(f"{ei.name}: operations not supported by the fabric: {sorted(bad)}")
    led = ei.ledger
    stages = stage_count(led, capacity)
    if led.iram_bytes_used > capacity.iram_bytes:
        raise ResourceExceeded(
            f"{ei.name}: {led.iram_bytes_used} IRAM bytes exceeds {capacity.iram_bytes}"
        )
    if led.alu_ops_used > capacity.alu_ops * stages:
        raise ResourceExceeded(
            f"{ei.name}: {led.alu_ops_used} ALU ops exceeds "
            f"{capacity.alu_ops} x {stages} stage(s)"
        )
    return stages


def ei_execute(
    ei: ExtensionInstruction,
    inputs: Sequence[WideRegister],
    iram: Optional[IramState] = None,
    log: Optional[InvocationLog] = None,
) -> tuple[WideRegister, ...]:
    """Run one invocation of an instruction, validating it at
    DEFAULT_CAPACITY before its first run.

    Deterministic: identical (instruction, inputs, IRAM state) yields
    identical outputs and identical IRAM end state.  The IRAM access log
    is cleared at entry and every entry access inside the body is
    checked against the one-touch-per-bank rule.
    """
    if not ei._validated:
        ei_validate(ei)
        ei._validated = True
    if len(inputs) != ei.n_inputs:
        raise ArityViolation(f"{ei.name}: expected {ei.n_inputs} inputs, got {len(inputs)}")
    for wr in inputs:
        if not isinstance(wr, WideRegister):
            raise TypeError(f"{ei.name}: inputs must be WideRegister, got {type(wr).__name__}")
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
