"""Exception hierarchy for the Nimble reproduction.

Every subsystem raises a subclass of :class:`NimbleError` so callers can
catch compiler vs. runtime failures separately, mirroring how TVM splits
``TVMError`` diagnostics from runtime check failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


class NimbleError(Exception):
    """Base class for all errors raised by this package."""


class TypeInferenceError(NimbleError):
    """A type relation failed or unification found incompatible types."""


class ShapeError(NimbleError):
    """A shape function or runtime shape check failed (gradual typing)."""


class CompilerError(NimbleError):
    """A compiler pass was applied to IR it cannot handle."""


class BatchSpecializeError(CompilerError):
    """The module cannot be rewritten at batch granularity (an op without
    a batch rule, ADT/closure entry, residual dynamism). Callers fall
    back to the member-wise static tier."""


class VMError(NimbleError):
    """The virtual machine hit an invalid instruction or operand."""


class ShapeGuardError(VMError):
    """Inputs break a specialized executable's entry contract.

    Every specialized executable (exact, batched or partial) has an
    ``entry_contract`` derived from the shapes it was compiled for, and
    the VM checks each run against it with ``entry_mismatch``, which
    fails closed: static code must not compute with someone else's dims.
    The serving layer never sees this raised — it makes the same check
    first and transparently deopts mismatched batch members to the
    dynamic tier."""


class SerializationError(NimbleError):
    """An executable could not be serialized or deserialized."""


@dataclass(frozen=True)
class Finding:
    """One defect reported by a static checker (``repro.analysis``).

    ``checker`` names the checker that produced it (``bytecode``,
    ``races``, ``lifetimes``, ``lint``); ``function`` the VM or IR
    function; ``pc`` the instruction index (-1 for IR-level findings,
    which have no bytecode position). ``severity`` is ``"error"`` for
    soundness violations and ``"warning"`` for hygiene findings
    (unused bindings, shadowing) that never fail verification.
    """

    checker: str
    function: str
    pc: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        where = f"{self.function}@{self.pc}" if self.pc >= 0 else self.function
        return f"[{self.checker}] {where}: {self.message}"


class VerificationError(NimbleError):
    """Static verification of an executable or module failed.

    Normalizes every checker's failures into one exception type (the
    way decoder failures all normalize to :class:`SerializationError`),
    carrying the structured ``findings`` list so store/serve callers can
    count, log, or render them without parsing the message."""

    def __init__(
        self, findings: Sequence[Finding], context: Optional[str] = None
    ) -> None:
        self.findings = list(findings)
        self.context = context
        head = f"verification failed ({len(self.findings)} finding(s))"
        if context:
            head += f" {context}"
        lines = [head] + [f"  {f}" for f in self.findings[:8]]
        if len(self.findings) > 8:
            lines.append(f"  ... and {len(self.findings) - 8} more")
        super().__init__("\n".join(lines))
