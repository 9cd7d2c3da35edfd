"""The VM executable: platform-independent bytecode + platform-dependent
kernels + constant pool (§5, Figure 2).

Bytecode and constants serialize to a compact custom binary format
(magic + sections, varint-encoded instructions); kernels — which in the
real system are machine code — serialize as a pickled section carrying
their fused-function IR and schedules, from which they are re-materialized
at load time. ``save``/``load`` round-trip is exercised by property
tests; the byte-level format is specified in ``docs/serialization.md``.

Blobs carry the specialization markers (shape binding, batch), the
artifact-store metadata — the source module's
:func:`repro.ir.printer.module_fingerprint` and a content hash over
(fingerprint, platform, shape binding, batch marker, serialization
version, stream count), the key the on-disk
:class:`repro.store.ArtifactStore` files the blob under, verified again
at load time — and the static multi-stream schedule
(``repro.vm.schedule``): each ``InvokePacked`` encodes its AOT-assigned
stream, the two scheduling opcodes (``StreamEvent``/``StreamWait``)
serialize, and a trailing section records ``device_streams`` and the
run-time event-table size.
"""

from __future__ import annotations

import hashlib
import io
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import SerializationError, VMError
from repro.ir import codec
from repro.tensor.device import Device, DeviceKind
from repro.tensor.dtype import to_numpy_dtype
from repro.tensor.ndarray import NDArray
from repro.vm import instruction as ins

MAGIC = b"NMBL"
# The loader accepts only the version it writes. The version is a
# component of every artifact key, so older blobs are never looked up;
# one met anyway is rejected as stale, not migrated. 7: a batched GEMM
# is ``nn.dense`` with ``batch``, where 6 named an op no longer registered.
VERSION = 7


def artifact_key(
    source_signature: Optional[str],
    platform_name: str,
    specialized_shapes: Optional[tuple],
    specialized_batch: Optional[int],
    device_streams: Optional[int] = None,
) -> str:
    """The content hash a compiled artifact is stored and validated under.

    Stable across processes: every ingredient reprs deterministically
    (``Any`` dims print as ``?``, shapes are int tuples) and the
    serialization VERSION is folded in, so a format bump changes every
    key and old blobs are never even looked up — staleness falls out of
    the keying instead of needing a migration. ``specialized_batch`` is
    normalized (None and 1 both mean member-wise) so callers cannot
    create aliasing keys for the same artifact; ``device_streams`` is
    normalized the same way (None and 1 both mean single-stream).
    """
    batch = int(specialized_batch or 0)
    if batch == 1:
        batch = 0
    payload = repr(
        (
            source_signature or "",
            platform_name,
            specialized_shapes,
            batch,
            VERSION,
            int(device_streams or 1),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _marker_has_none(marker) -> bool:
    """True if a specialized-shape marker (int tuple for a tensor param,
    nested tuple for a tuple param) contains a None dim anywhere."""
    if marker is None:
        return True
    if isinstance(marker, tuple):
        return any(_marker_has_none(m) for m in marker)
    return False


def _guard_check(marker, value, where: str) -> Optional[str]:
    """Compare one specialized-shape marker against one runtime input.

    Tensor markers are flat tuples of int (bound — must match) or None
    (left dynamic — any extent passes); tuple-param markers nest. A
    fully-None marker means the param was not specialized at all. Inputs
    the guard cannot introspect fail open rather than blocking dispatch."""
    if marker is None:
        return None
    if not isinstance(marker, tuple):
        return None
    if marker and all(isinstance(m, (tuple, type(None))) for m in marker) and any(
        isinstance(m, tuple) for m in marker
    ):
        # Tuple-typed param: recurse into fields.
        fields = getattr(value, "fields", None)
        if fields is None and isinstance(value, (tuple, list)):
            fields = value
        if fields is None or len(fields) != len(marker):
            return None  # fail open on opaque values
        for j, (m, v) in enumerate(zip(marker, fields)):
            msg = _guard_check(m, v, f"{where}.{j}")
            if msg is not None:
                return msg
        return None
    shape = getattr(value, "shape", None)
    if shape is None:
        return None  # fail open: scalar / opaque input
    if len(shape) != len(marker):
        return (
            f"guard: {where} has rank {len(shape)} but was specialized "
            f"for rank {len(marker)}"
        )
    for d, (bound, actual) in enumerate(zip(marker, shape)):
        if bound is None:
            continue
        if int(actual) != int(bound):
            return (
                f"guard: {where} dim {d} is {int(actual)} but was "
                f"specialized for {int(bound)}"
            )
    return None


@dataclass
class VMFunction:
    name: str
    num_params: int
    instructions: List[ins.Instruction]
    register_count: int
    # ``repro.vm.generator.function_code``'s cache key for this function
    # over one constant pool, made on first use: a function's
    # instructions do not change once it has run.
    code_key: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)


@dataclass
class Executable:
    platform_name: str
    functions: List[VMFunction]
    func_index: Dict[str, int]
    constants: List[NDArray]
    kernels: list  # KernelSet | ShapeFuncKernel, indexed by InvokePacked
    entry: str = "main"
    # For a statically specialized executable (``nimble.specialize``):
    # the concrete entry-parameter shapes it was compiled for, with None
    # marking dims/params left dynamic. None for a fully dynamic build.
    # Shapes are in *member* terms even for a batch-specialized build;
    # ``specialized_batch`` carries how many same-shape members one call
    # stacks (None / 1 for member-wise builds), so (shape, batch)
    # variants are distinguishable — a batch-cap change must never alias
    # an old variant.
    specialized_shapes: Optional[tuple] = None
    specialized_batch: Optional[int] = None
    # Fingerprint of the *source* module this executable was compiled
    # from (``module_fingerprint`` of the dynamic module, before any
    # specialization pass) — the module-identity component of the
    # artifact-store key. None for executables built outside the public
    # API (hand-assembled tests).
    source_signature: Optional[str] = None
    # Static multi-stream schedule (repro.vm.schedule): how many device
    # streams the bytecode was scheduled onto (1 = unscheduled — the
    # exact single-lane model) and the size of the per-run sync-event
    # table the interpreter must provision.
    device_streams: int = 1
    num_events: int = 0
    # What a VM binding this executable runs (`repro.vm.link.linked`):
    # derived on first bind, never stored.
    linked: Optional[object] = field(default=None, init=False, repr=False, compare=False)

    @property
    def is_specialized(self) -> bool:
        return self.specialized_shapes is not None

    def content_hash(self) -> str:
        """The artifact-store key for this executable: a stable hash of
        (source-module fingerprint, platform, shape binding, batch
        marker, serialization version, stream count). Recomputed and
        verified at load time, so a blob whose identity metadata was
        tampered with, or that was filed under the wrong key, is
        rejected instead of silently served."""
        return artifact_key(
            self.source_signature,
            self.platform_name,
            self.specialized_shapes,
            self.specialized_batch,
            self.device_streams,
        )

    @property
    def is_batch_specialized(self) -> bool:
        return self.specialized_batch is not None and self.specialized_batch > 1

    @property
    def is_partial(self) -> bool:
        """True for a *partially* specialized executable: at least one
        dim inside ``specialized_shapes`` is None (left dynamic) while
        others are bound. Such a variant covers a family of exact shapes
        and must be entry-guarded (`guard_mismatch`) before every run."""
        if self.specialized_shapes is None:
            return False
        return any(
            _marker_has_none(marker)
            for marker in self.specialized_shapes
            if marker is not None
        )

    def guard_mismatch(self, inputs) -> Optional[str]:
        """Entry shape guard: check *inputs* against the bound dims this
        executable was specialized for.

        Returns None when every bound dim agrees (or the executable is
        not member-wise specialized — dynamic and batch-specialized
        builds have no member-shape contract to check here), otherwise a
        human-readable description of the first mismatch. The serving
        layer calls this before dispatch and transparently deopts
        mismatched members to the dynamic tier; the VM calls it again in
        ``run()`` as a hard safety net (raising ``ShapeGuardError``).
        Opaque inputs (no ``.shape``) fail open — the guard only checks
        what it can see. The VM also checks a variant with every entry
        shape bound, batched ones included, against its whole (stacked)
        shapes, and fails closed (`repro.vm.link.guard_mismatch`)."""
        if self.specialized_shapes is None:
            return None
        if self.specialized_batch is not None and self.specialized_batch > 1:
            return None
        if len(inputs) != len(self.specialized_shapes):
            # The marker does not describe these inputs param-wise:
            # fail open like any other shape the guard cannot introspect.
            # The VM's own num_params check rejects wrong-arity calls.
            return None
        for i, (marker, value) in enumerate(zip(self.specialized_shapes, inputs)):
            msg = _guard_check(marker, value, f"param {i}")
            if msg is not None:
                return msg
        return None

    # ------------------------------------------------------------- statistics
    @property
    def num_instructions(self) -> int:
        return sum(len(f.instructions) for f in self.functions)

    def bytecode_size_bytes(self) -> int:
        return len(self._serialize_bytecode())

    def kernel_code_size_bytes(self) -> int:
        return sum(getattr(k, "code_size_bytes", 512) for k in self.kernels)

    # ------------------------------------------------------------ serialization
    def save(self) -> bytes:
        return b"".join(self.save_chunks())

    def save_chunks(self) -> List[Union[bytes, memoryview]]:
        """:meth:`save` in the pieces it is joined from: framing as
        ``bytes``, each constant's data as a ``memoryview`` of the array
        — the pieces an :class:`repro.store.ArtifactStore` splits on."""
        out = io.BytesIO()
        out.write(MAGIC)
        out.write(struct.pack("<H", VERSION))
        _write_bytes(out, self.platform_name.encode())
        _write_bytes(out, self._serialize_bytecode())
        # The weights are nearly all of a blob: they bypass `out` and are
        # copied once, from the arrays into the blob `save` joins.
        constants = self._constant_chunks()
        _write_varint(out, sum(map(len, constants)))
        split = out.tell()
        _write_bytes(out, codec.dumps(self.kernels))
        _write_bytes(out, self.entry.encode())
        _write_bytes(out, codec.dumps(self.specialized_shapes))
        _write_varint(out, self.specialized_batch or 0)
        # Store metadata: fingerprint, then the content hash computed
        # over everything identity-bearing above it.
        _write_bytes(out, (self.source_signature or "").encode())
        _write_bytes(out, self.content_hash().encode())
        # Stream schedule.
        _write_varint(out, self.device_streams)
        _write_varint(out, self.num_events)
        framing = out.getvalue()
        return [framing[:split], *constants, framing[split:]]

    @staticmethod
    def load(
        blob: bytes, expected_signature: Optional[str] = None
    ) -> "Executable":
        """:meth:`load_chunks` of the one piece a ``save()`` blob is."""
        return Executable.load_chunks([blob], expected_signature)

    @staticmethod
    def load_chunks(chunks, expected_signature: Optional[str] = None) -> "Executable":
        """Deserialize the byte stream *chunks* concatenate to — what
        ``save_chunks()`` returned, cut anywhere. A constant that is
        one whole array chunk is shared, not copied
        (:meth:`ChunkReader.array`).

        Any version but the current one is rejected as stale rather
        than misread. The embedded content hash is re-verified, and
        ``expected_signature`` (the artifact store passes the fingerprint
        of the module it is restoring for) rejects a blob compiled from a
        *different* module that happens to be filed at the right path.
        """
        buf = ChunkReader(chunks)
        if buf.read(4) != MAGIC:
            raise SerializationError("bad magic: not a Nimble executable")
        version = int.from_bytes(buf.read(2), "little")
        if version != VERSION:
            raise SerializationError(
                f"unsupported executable version {version} "
                f"(this build reads version {VERSION})"
            )
        # Corruption inside a section surfaces as whatever the decoder
        # tripped over (unicode, pickle, struct, numpy reshape, ...).
        # Callers — the artifact store above all — must be able to
        # treat "bad blob" as ONE exception type: anything else would
        # turn a corrupt file into a crash.
        with codec.decoding("executable blob"):
            platform_name = _read_bytes(buf).decode()
            functions, func_index = _deserialize_bytecode(_read_bytes(buf))
            constants = _deserialize_constants(buf)
            kernels = codec.loads(_read_bytes(buf))
            entry = _read_bytes(buf).decode()
            specialized_shapes = codec.loads(_read_bytes(buf))
            specialized_batch = _read_varint(buf)
            source_signature = _read_bytes(buf).decode() or None
            stored_hash = _read_bytes(buf).decode()
            device_streams = _read_varint(buf)
            num_events = _read_varint(buf)
        exe = Executable(
            platform_name, functions, func_index, constants, kernels, entry,
            specialized_shapes, specialized_batch or None, source_signature,
            device_streams, num_events,
        )
        if stored_hash != exe.content_hash():
            raise SerializationError(
                "content hash mismatch: blob metadata does not hash to its "
                "recorded artifact key (corrupt or tampered artifact)"
            )
        if (
            expected_signature is not None
            and exe.source_signature != expected_signature
        ):
            raise SerializationError(
                f"source-signature mismatch: expected {expected_signature!r}, "
                f"blob was compiled from {exe.source_signature!r}"
            )
        return exe

    # -- bytecode section -------------------------------------------------------
    def _serialize_bytecode(self) -> bytes:
        out = io.BytesIO()
        _write_varint(out, len(self.functions))
        for func in self.functions:
            _write_bytes(out, func.name.encode())
            _write_varint(out, func.num_params)
            _write_varint(out, func.register_count)
            _write_varint(out, len(func.instructions))
            for instr in func.instructions:
                _encode_instruction(out, instr)
        return out.getvalue()

    def _constant_chunks(self) -> List[Union[bytes, memoryview]]:
        """The constants section in pieces: framing as ``bytes``, each
        array's data as a view of the array, not a copy."""
        chunks: List[Union[bytes, memoryview]] = []
        out = io.BytesIO()
        _write_varint(out, len(self.constants))
        for const in self.constants:
            arr = const.numpy()
            _write_bytes(out, str(const.dtype).encode())
            _write_varint(out, arr.ndim)
            for d in arr.shape:
                _write_varint(out, d)
            _write_varint(out, arr.nbytes)
            data = np.ascontiguousarray(arr).reshape(-1).view(np.uint8).data
            chunks += [out.getvalue(), data]
            out = io.BytesIO()
        return chunks + [out.getvalue()]


# ---------------------------------------------------------------------------
# varint / framing helpers
# ---------------------------------------------------------------------------


class ChunkReader:
    """``read`` and ``tell`` of a ``BytesIO`` over what *chunks* — 1-D
    byte buffers — concatenate to, without joining them."""

    def __init__(self, chunks) -> None:
        self._rest = [chunk for chunk in chunks if len(chunk)][::-1]
        self._pos = 0
        self._next()

    def _next(self) -> None:
        """Step into the next chunk (an empty one behind the last)."""
        self._chunk = self._rest.pop() if self._rest else b""
        self._view, self._offset = memoryview(self._chunk), 0

    def tell(self) -> int:
        return self._pos

    def _take(self, n: int) -> memoryview:
        """Up to *n* bytes, as a view of the chunk the position is in."""
        if self._offset == len(self._view) and self._rest:
            self._next()
        view = self._view[self._offset : self._offset + n]
        self._offset += len(view)
        self._pos += len(view)
        return view

    def read(self, n: int) -> bytes:
        start, end = self._offset, self._offset + n
        if end <= len(self._view):  # inside one chunk: nearly every read
            self._offset, self._pos = end, self._pos + n
            return bytes(self._view[start:end])
        out = bytes(self._take(n))
        while len(out) < n and self._rest:
            out += self._take(n - len(out))
        return out

    def array(self, n: int, dtype=np.uint8, shape=-1) -> np.ndarray:
        """The next *n* bytes as an array aligned as ``np.empty`` aligns
        one. A chunk that is itself an array and exactly those bytes —
        the store's shared, read-only copy of a constant — is viewed;
        anything else is copied: a view at whatever offset the bytes
        have in their blob sends NumPy down another code path, and a
        kernel's result differs in the last place from a compiled one's."""
        raw, chunk = self._take(n), self._chunk
        if isinstance(chunk, np.ndarray) and len(raw) == n == len(chunk):
            return chunk.view(dtype).reshape(shape)
        if len(raw) < n:
            raw = bytes(raw) + self.read(n - len(raw))
        if len(raw) != n:
            raise SerializationError("truncated section")
        return np.frombuffer(raw, dtype).reshape(shape).copy()


def _write_varint(out: io.BytesIO, value: int) -> None:
    """LEB128 with zigzag so negative jump offsets encode compactly."""
    encoded = (value << 1) ^ (value >> 63) if value < 0 else value << 1
    while True:
        byte = encoded & 0x7F
        encoded >>= 7
        if encoded:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def _read_varint(buf: io.BytesIO) -> int:
    shift = 0
    result = 0
    while True:
        raw = buf.read(1)
        if not raw:
            raise SerializationError("truncated varint")
        byte = raw[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
    return (result >> 1) ^ -(result & 1)


def _write_bytes(out: io.BytesIO, data: bytes) -> None:
    _write_varint(out, len(data))
    out.write(data)


def _read_bytes(buf: io.BytesIO) -> bytes:
    length = _read_varint(buf)
    data = buf.read(length)
    if len(data) != length:
        raise SerializationError("truncated section")
    return data


def _write_device(out: io.BytesIO, device: Device) -> None:
    out.write(bytes((0 if device.kind is DeviceKind.CPU else 1,)))
    _write_varint(out, device.index)


_KIND_OF_BYTE = {b"\x00": DeviceKind.CPU, b"\x01": DeviceKind.GPU}


def _read_device(buf: io.BytesIO) -> Device:
    byte = buf.read(1)
    if byte not in _KIND_OF_BYTE:
        raise SerializationError(
            f"unknown device kind byte {byte.hex() or '(missing)'}"
        )
    return Device(_KIND_OF_BYTE[byte], _read_varint(buf))


# ---------------------------------------------------------------------------
# instruction encoding: each class's fields in declaration order
# (``instruction.layout``)
# ---------------------------------------------------------------------------


def _encode_instruction(out: io.BytesIO, instr: ins.Instruction) -> None:
    out.write(bytes((instr.opcode,)))
    for name, kind in ins.layout(type(instr)):
        value = getattr(instr, name)
        if kind is int:
            _write_varint(out, value)
        elif kind is str:
            _write_bytes(out, value.encode())
        elif kind is Device:
            _write_device(out, value)
        else:  # a tuple of ints, length-prefixed
            _write_varint(out, len(value))
            for item in value:
                _write_varint(out, item)


_CLASS_OF = {bytes((cls.opcode,)): cls for cls in ins.Instruction.__subclasses__()}


def _decode_instruction(buf: io.BytesIO) -> ins.Instruction:
    opcode = buf.read(1)
    cls = _CLASS_OF.get(opcode)
    if cls is None:
        raise SerializationError(
            f"unknown opcode byte {opcode.hex() or '(missing)'}"
        )
    values = {}
    for name, kind in ins.layout(cls):
        if kind is int:
            values[name] = _read_varint(buf)
        elif kind is str:
            values[name] = _read_bytes(buf).decode()
        elif kind is Device:
            values[name] = _read_device(buf)
        else:
            n = _read_varint(buf)
            values[name] = tuple(_read_varint(buf) for _ in range(n))
    return cls(**values)


def _deserialize_bytecode(blob: bytes) -> Tuple[List[VMFunction], Dict[str, int]]:
    buf = io.BytesIO(blob)
    functions: List[VMFunction] = []
    index: Dict[str, int] = {}
    for _ in range(_read_varint(buf)):
        name = _read_bytes(buf).decode()
        num_params = _read_varint(buf)
        register_count = _read_varint(buf)
        count = _read_varint(buf)
        instructions = [_decode_instruction(buf) for _ in range(count)]
        index[name] = len(functions)
        functions.append(VMFunction(name, num_params, instructions, register_count))
    return functions, index


def _deserialize_constants(buf: "ChunkReader") -> List[NDArray]:
    """Read the constants section at *buf*'s position. Array data is
    taken with :meth:`ChunkReader.array`, so the only copy made of a
    weight is the array that owns it."""
    end = _read_varint(buf)
    end += buf.tell()
    out: List[NDArray] = []
    for _ in range(_read_varint(buf)):
        dtype = _read_bytes(buf).decode()
        ndim = _read_varint(buf)
        shape = tuple(_read_varint(buf) for _ in range(ndim))
        length = _read_varint(buf)
        if not 0 <= length <= end - buf.tell():
            raise SerializationError("truncated section")
        out.append(NDArray(buf.array(length, to_numpy_dtype(dtype), shape)))
    if buf.tell() != end:
        raise SerializationError("constants section overruns its length")
    return out
