"""Serialization format tests: the current writer must emit the
documented v9 layout (docs/serialization.md), and the loader must
reject every other version as stale instead of misreading it."""

import struct

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.tensor.device import gpu
from repro.vm import instruction as ins
from repro.vm.executable import (
    MAGIC,
    VERSION,
    Executable,
    VMFunction,
    artifact_key,
)

EXPECTED_CONST = np.arange(6, dtype=np.float32).reshape(2, 3)


def _scheduled_exe() -> Executable:
    """A hand-assembled v5 executable exercising every scheduling
    construct the format added: an InvokePacked on a non-zero stream,
    the two sync opcodes, and the trailing schedule section."""
    from repro.tensor.ndarray import NDArray

    dev = gpu(0)
    instrs = [
        ins.LoadConst(0, 0),
        ins.InvokePacked(0, (0,), (1,), dev, "compute", stream=2),
        ins.StreamEvent(0, dev, 2),
        ins.StreamWait(0, dev, 0),
        ins.Ret(1),
    ]
    return Executable(
        platform_name="nvidia",
        functions=[VMFunction("main", 0, instrs, 8)],
        func_index={"main": 0},
        constants=[NDArray(EXPECTED_CONST)],
        kernels=[],
        entry="main",
        source_signature="golden-v5-fingerprint",
        device_streams=4,
        num_events=1,
    )


class TestGoldenBlobs:
    def test_stale_and_future_versions_rejected(self):
        """v2–v8 blobs once loaded; the version is part of every
        artifact key, so none is ever looked up, and one met anyway —
        here a v9 body under an older header — is refused. (v5 wrote
        the count fields v6 dropped: its tuples would be misread; a
        batched v6 blob names ``nn.batch_dense``, an op v7 does not
        register, and would load, verify and then fail its first run;
        a v7 blob's kernels run the default schedule, where a v8 build
        runs the one it searched; a v8 kernels section is the bare
        pickle, which a v9 loader would try to inflate.)"""
        assert VERSION == 9
        blob = bytearray(_scheduled_exe().save())
        for bad in (2, 3, 4, 5, 6, 7, 8, VERSION + 1):
            blob[4:6] = struct.pack("<H", bad)
            with pytest.raises(SerializationError, match="version"):
                Executable.load(bytes(blob))


class TestV5Schedule:
    def test_current_writer_emits_v5(self):
        blob = _scheduled_exe().save()
        assert blob[:4] == MAGIC
        assert struct.unpack("<H", blob[4:6]) == (VERSION,)

    def test_v5_roundtrip_preserves_schedule(self):
        exe = _scheduled_exe()
        again = Executable.load(exe.save())
        assert again.device_streams == 4
        assert again.num_events == 1
        assert again.functions[0].instructions == exe.functions[0].instructions
        assert again.functions[0].instructions[1].stream == 2
        assert again.content_hash() == exe.content_hash()

    def test_artifact_key_folds_streams_only_for_v5(self):
        base = dict(
            source_signature="sig",
            platform_name="nvidia",
            specialized_shapes=None,
            specialized_batch=None,
        )
        # Stream count is identity — different counts, different
        # artifacts (their bytecode genuinely differs).
        one = artifact_key(**base, device_streams=1)
        four = artifact_key(**base, device_streams=4)
        assert one != four
        # None and 1 both mean single-stream: no aliasing keys.
        assert artifact_key(**base, device_streams=None) == one
        assert artifact_key(**base) == one

    def test_scheduled_executable_key_differs_from_unscheduled(self):
        exe = _scheduled_exe()
        single = Executable(
            platform_name=exe.platform_name,
            functions=exe.functions,
            func_index=exe.func_index,
            constants=exe.constants,
            kernels=[],
            entry="main",
            source_signature=exe.source_signature,
        )
        assert exe.content_hash() != single.content_hash()
