"""Gate-level Boolean circuit intermediate representation.

A :class:`Circuit` is a DAG of gates over named input signals.  The cipher
builders in :mod:`repro.ciphers` construct one circuit per cryptanalysis
instance: inputs are the unknown key / register-state bits, outputs are the
keystream bits.  The circuit can be

* **evaluated** on concrete input bits (used to generate keystream and as a
  differential test against the bit-level cipher simulators), and
* **encoded** to CNF via the Tseitin transformation
  (:func:`repro.encoder.tseitin.tseitin_encode`).

Signals are small integers; constants ``TRUE``/``FALSE`` are predefined.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

Signal = int

FALSE: Signal = 0
TRUE: Signal = 1


class GateKind(enum.Enum):
    """Supported gate types."""

    INPUT = "input"
    CONST = "const"
    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"
    MAJ = "maj"  # majority of three (A5/1 clocking)
    MUX = "mux"  # if-then-else: operands are (sel, then, else)


@dataclass(frozen=True)
class Gate:
    """One gate: a kind plus the signals it reads."""

    kind: GateKind
    operands: tuple[Signal, ...]

    def __post_init__(self) -> None:
        arity = {
            GateKind.NOT: 1,
            GateKind.MAJ: 3,
            GateKind.MUX: 3,
        }
        expected = arity.get(self.kind)
        if expected is not None and len(self.operands) != expected:
            raise ValueError(
                f"{self.kind.value} gate expects {expected} operands, got {len(self.operands)}"
            )
        if self.kind in (GateKind.AND, GateKind.OR, GateKind.XOR) and len(self.operands) < 2:
            raise ValueError(f"{self.kind.value} gate expects at least 2 operands")


class Circuit:
    """A Boolean circuit with named input groups and named outputs."""

    def __init__(self, name: str = "circuit"):
        self.name = name
        # Signal 0 and 1 are the constants FALSE and TRUE.
        self._gates: list[Gate] = [
            Gate(GateKind.CONST, ()),
            Gate(GateKind.CONST, ()),
        ]
        self._input_groups: dict[str, list[Signal]] = {}
        self._outputs: dict[str, list[Signal]] = {}

    # ------------------------------------------------------------------ inputs
    def add_input_group(self, name: str, width: int) -> list[Signal]:
        """Declare ``width`` fresh input signals under a group name (e.g. ``"key"``)."""
        if name in self._input_groups:
            raise ValueError(f"input group {name!r} already exists")
        signals = []
        for _ in range(width):
            self._gates.append(Gate(GateKind.INPUT, ()))
            signals.append(len(self._gates) - 1)
        self._input_groups[name] = signals
        return list(signals)

    @property
    def input_groups(self) -> dict[str, list[Signal]]:
        """Mapping from group name to its input signals."""
        return {name: list(sig) for name, sig in self._input_groups.items()}

    def inputs(self) -> list[Signal]:
        """All input signals in declaration order."""
        return [s for group in self._input_groups.values() for s in group]

    # ------------------------------------------------------------------ outputs
    def set_output_group(self, name: str, signals: Sequence[Signal]) -> None:
        """Name a list of signals as an output group (e.g. ``"keystream"``)."""
        for signal in signals:
            self._check_signal(signal)
        self._outputs[name] = list(signals)

    @property
    def output_groups(self) -> dict[str, list[Signal]]:
        """Mapping from output group name to its signals."""
        return {name: list(sig) for name, sig in self._outputs.items()}

    # -------------------------------------------------------------------- gates
    def _check_signal(self, signal: Signal) -> None:
        if not 0 <= signal < len(self._gates):
            raise ValueError(f"unknown signal {signal}")

    def _add_gate(self, kind: GateKind, operands: tuple[Signal, ...]) -> Signal:
        for op in operands:
            self._check_signal(op)
        self._gates.append(Gate(kind, operands))
        return len(self._gates) - 1

    def const(self, value: bool) -> Signal:
        """Return the constant TRUE or FALSE signal."""
        return TRUE if value else FALSE

    def not_(self, a: Signal) -> Signal:
        """Logical negation (folds constants and double negation)."""
        if a == FALSE:
            return TRUE
        if a == TRUE:
            return FALSE
        gate = self._gates[a]
        if gate.kind is GateKind.NOT:
            return gate.operands[0]
        return self._add_gate(GateKind.NOT, (a,))

    def and_(self, *operands: Signal) -> Signal:
        """Logical conjunction of two or more signals."""
        ops = [op for op in operands if op != TRUE]
        if any(op == FALSE for op in ops):
            return FALSE
        if not ops:
            return TRUE
        if len(ops) == 1:
            return ops[0]
        return self._add_gate(GateKind.AND, tuple(ops))

    def or_(self, *operands: Signal) -> Signal:
        """Logical disjunction of two or more signals."""
        ops = [op for op in operands if op != FALSE]
        if any(op == TRUE for op in ops):
            return TRUE
        if not ops:
            return FALSE
        if len(ops) == 1:
            return ops[0]
        return self._add_gate(GateKind.OR, tuple(ops))

    def xor(self, *operands: Signal) -> Signal:
        """Exclusive or of two or more signals (constants folded)."""
        parity = 0
        ops: list[Signal] = []
        for op in operands:
            if op == TRUE:
                parity ^= 1
            elif op != FALSE:
                ops.append(op)
        if not ops:
            return TRUE if parity else FALSE
        if len(ops) == 1:
            return self.not_(ops[0]) if parity else ops[0]
        result = self._add_gate(GateKind.XOR, tuple(ops))
        return self.not_(result) if parity else result

    def maj(self, a: Signal, b: Signal, c: Signal) -> Signal:
        """Majority of three signals (used by the A5/1 clocking rule)."""
        constants = [s for s in (a, b, c) if s in (TRUE, FALSE)]
        if len(constants) >= 2:
            trues = sum(1 for s in constants if s == TRUE)
            if trues >= 2:
                return TRUE
            if len(constants) == 3:
                return TRUE if trues >= 2 else FALSE
            # exactly two constants with different values -> majority == the third signal
            if trues == 1:
                (other,) = [s for s in (a, b, c) if s not in (TRUE, FALSE)]
                return other
            return FALSE
        return self._add_gate(GateKind.MAJ, (a, b, c))

    def mux(self, sel: Signal, then_sig: Signal, else_sig: Signal) -> Signal:
        """If-then-else: ``sel ? then_sig : else_sig``."""
        if sel == TRUE:
            return then_sig
        if sel == FALSE:
            return else_sig
        if then_sig == else_sig:
            return then_sig
        return self._add_gate(GateKind.MUX, (sel, then_sig, else_sig))

    # ------------------------------------------------------------------ queries
    @property
    def num_gates(self) -> int:
        """Total number of gates, including the two constants and the inputs."""
        return len(self._gates)

    def gate(self, signal: Signal) -> Gate:
        """The gate that drives ``signal``."""
        self._check_signal(signal)
        return self._gates[signal]

    def gates(self) -> Iterable[tuple[Signal, Gate]]:
        """Iterate over ``(signal, gate)`` pairs in topological (creation) order."""
        return enumerate(self._gates)

    # ----------------------------------------------------------------- evaluate
    def evaluate(
        self, inputs: dict[str, Sequence[int | bool]] | dict[Signal, bool]
    ) -> dict[Signal, bool]:
        """Evaluate every gate of the circuit.

        ``inputs`` either maps input *group names* to bit sequences, or maps
        input *signals* directly to Booleans.  Returns the value of every
        signal; use :meth:`output_bits` for the named outputs.
        """
        values: dict[Signal, bool] = {FALSE: False, TRUE: True}
        if inputs and all(isinstance(key, str) for key in inputs):
            for name, bits in inputs.items():  # type: ignore[assignment]
                group = self._input_groups.get(name)
                if group is None:
                    raise KeyError(f"unknown input group {name!r}")
                if len(bits) != len(group):
                    raise ValueError(
                        f"group {name!r} expects {len(group)} bits, got {len(bits)}"
                    )
                for signal, bit in zip(group, bits):
                    values[signal] = bool(bit)
        else:
            for signal, bit in inputs.items():  # type: ignore[union-attr]
                values[int(signal)] = bool(bit)

        for signal, gate in enumerate(self._gates):
            if signal in values:
                continue
            kind = gate.kind
            if kind is GateKind.INPUT:
                raise ValueError(f"input signal {signal} was not given a value")
            ops = [values[op] for op in gate.operands]
            if kind is GateKind.NOT:
                values[signal] = not ops[0]
            elif kind is GateKind.AND:
                values[signal] = all(ops)
            elif kind is GateKind.OR:
                values[signal] = any(ops)
            elif kind is GateKind.XOR:
                values[signal] = bool(sum(ops) % 2)
            elif kind is GateKind.MAJ:
                values[signal] = sum(ops) >= 2
            elif kind is GateKind.MUX:
                values[signal] = ops[1] if ops[0] else ops[2]
            else:  # pragma: no cover - defensive
                raise ValueError(f"cannot evaluate gate kind {kind}")
        return values

    def output_bits(
        self, group: str, inputs: dict[str, Sequence[int | bool]] | dict[Signal, bool]
    ) -> list[int]:
        """Evaluate the circuit and return the named output group as a bit list."""
        values = self.evaluate(inputs)
        return [int(values[s]) for s in self._outputs[group]]

    def stats(self) -> dict[str, int]:
        """Gate counts by kind (useful for encoding-size reporting)."""
        counts: dict[str, int] = {}
        for gate in self._gates:
            counts[gate.kind.value] = counts.get(gate.kind.value, 0) + 1
        return counts
