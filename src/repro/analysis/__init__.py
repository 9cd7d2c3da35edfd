"""`repro.analysis` — static verification for every executable.

Four independent checkers prove an executable well-formed without running
it (docs/analysis.md has the catalog):

* :mod:`repro.analysis.bytecode` — abstract interpretation: registers
  defined on all paths, operand/bounds validity, kernel kinds, storage
  alloc-before-use, jump targets, stream/event bounds;
* :mod:`repro.analysis.races` — independent vector-clock happens-before
  over the serialized ``StreamEvent``/``StreamWait`` schedule, checking
  every hazard edge of the AOT dependency graph plus the cross-function
  fence/join contract;
* :mod:`repro.analysis.lifetimes` — no two overlapping live intervals
  share intersecting bytes of one storage token;
* :mod:`repro.analysis.lint` — IR well-formedness between passes
  (``Sequential(verify_each_pass=True)``).

:func:`verify_executable` is the driver the rest of the system calls: at
the end of every compile (``CompilerOptions(verify=True)``, the default),
on every store load (`repro.store` rejects-and-counts a blob that fails
verification exactly like a corrupt one — it is never executed), and in
CI (`benchmarks/verify_artifacts.py`). Serving compiles go through the
compiler's gate like any other.

Findings, not exceptions, are the checkers' native output: each checker
returns a list of :class:`repro.errors.Finding` and
:func:`assert_verified` normalizes error-severity findings into one
:class:`repro.errors.VerificationError`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import Finding, VerificationError
from repro.analysis.bytecode import check_bytecode
from repro.analysis.lifetimes import check_lifetimes
from repro.analysis.lint import lint_function, lint_module
from repro.analysis.races import check_races
from repro.analysis.mutate import OPERATORS, all_mutants

__all__ = [
    "Finding",
    "VerificationError",
    "check_bytecode",
    "check_races",
    "check_lifetimes",
    "check_guard",
    "lint_module",
    "lint_function",
    "verify_executable",
    "assert_verified",
    "OPERATORS",
    "all_mutants",
]


def verify_executable(exe) -> List[Finding]:
    """Run every executable-level checker; returns all findings.

    The bytecode verifier runs first and, if it reports errors, alone:
    the race and lifetime checkers assume structurally valid bytecode
    (in-bounds registers and indices), so their output on a mangled
    executable would be noise stacked on the real defect.
    """
    findings = check_bytecode(exe)
    if any(f.severity == "error" for f in findings):
        return findings
    findings = findings + check_races(exe) + check_lifetimes(exe) + check_guard(exe)
    return findings


def check_guard(exe) -> List[Finding]:
    """Check that a specialized executable's entry contract is sound.

    A *partial* specialization (some dims in ``specialized_shapes`` left
    ``None``) is only sound member-wise: each call is checked against its
    ``entry_contract`` and the serving layer deopts mismatches one member
    at a time. A batch-specialized partial variant would stack members
    whose unbound dims may disagree into one call, which no contract
    can express — the compiler refuses to build one
    (``BatchSpecializeError``), and this checker rejects any blob that
    claims otherwise (a tampered or buggy-writer artifact).
    """
    is_partial = getattr(exe, "is_partial", False)
    batch = getattr(exe, "specialized_batch", None) or 1
    if is_partial and batch > 1:
        return [
            Finding(
                checker="guard",
                function=exe.entry,
                pc=-1,
                message=(
                    f"partially specialized executable claims batch "
                    f"{batch}: partial variants are member-wise only "
                    f"(the entry contract holds one member's bound dims)"
                ),
            )
        ]
    return []


def assert_verified(exe, context: Optional[str] = None) -> List[Finding]:
    """Raise :class:`VerificationError` on any error-severity finding;
    returns the full finding list (warnings included) when clean."""
    findings = verify_executable(exe)
    errors = [f for f in findings if f.severity == "error"]
    if errors:
        raise VerificationError(errors, context)
    return findings
