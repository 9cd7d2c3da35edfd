"""The three evaluation platforms of §6.1.

* ``intel_cpu()``  — c5.9xlarge-class Skylake host (MKL-class library);
* ``nvidia_gpu()`` — g4dn.4xlarge-class host + T4 (cuDNN-class library);
* ``arm_cpu()``    — a1.4xlarge-class Cortex-A72 (weak library coverage).

A platform bundles the host spec, the compute device spec, and the name
used to index calibration tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import NimbleError
from repro.hardware import calibration
from repro.hardware.specs import DeviceSpec, LibraryProfile
from repro.tensor.device import Device, cpu, gpu

_MKL = LibraryProfile(
    name="mkl",
    gemm_efficiency=0.58,
    bandwidth_fraction=0.80,
    elemwise_efficiency=0.60,
)

_CUDNN = LibraryProfile(
    name="cudnn",
    gemm_efficiency=0.62,
    bandwidth_fraction=0.85,
    elemwise_efficiency=0.70,
)

# OpenBLAS-class on a small ARM server: GEMM is acceptable, but
# bandwidth-bound kernels (GEMV) are effectively single-threaded.
_ARM_BLAS = LibraryProfile(
    name="openblas",
    gemm_efficiency=0.30,
    bandwidth_fraction=0.13,
    elemwise_efficiency=0.35,
)

_INTEL = DeviceSpec(
    name="intel-skylake",
    peak_gflops=1780.0,
    dram_bw_gbps=90.0,
    cache_bw_gbps=190.0,
    llc_bytes=24_750_000,
    launch_overhead_us=0.7,
    host_launch_us=0.0,
    sat_flops=2.5e6,
    tuned_gemm_efficiency=0.65,
    tuned_bandwidth_fraction=0.95,
    tuned_elemwise_efficiency=0.80,
    library=_MKL,
)

_T4 = DeviceSpec(
    name="nvidia-t4",
    peak_gflops=8100.0,
    dram_bw_gbps=320.0,
    cache_bw_gbps=1300.0,
    llc_bytes=4_000_000,
    launch_overhead_us=5.0,
    host_launch_us=1.2,
    is_gpu=True,
    # The T4 exposes plenty of hardware queues; 8 is the point past which
    # the scheduler finds no more independent chains in our models.
    max_streams=8,
    sat_flops=1.2e7,
    copy_bw_gbps=6.0,
    copy_latency_us=6.0,
    tuned_gemm_efficiency=0.55,
    tuned_bandwidth_fraction=0.80,
    tuned_elemwise_efficiency=0.75,
    library=_CUDNN,
)

_GPU_HOST = DeviceSpec(
    name="gpu-host-xeon",
    peak_gflops=400.0,
    dram_bw_gbps=60.0,
    cache_bw_gbps=100.0,
    llc_bytes=16_000_000,
    launch_overhead_us=0.7,
    host_launch_us=0.0,
    sat_flops=1.5e6,
    tuned_gemm_efficiency=0.55,
    tuned_bandwidth_fraction=0.9,
    tuned_elemwise_efficiency=0.8,
    library=_MKL,
)

_ARM = DeviceSpec(
    name="arm-a72",
    peak_gflops=294.0,
    dram_bw_gbps=30.0,
    cache_bw_gbps=48.0,
    llc_bytes=8_000_000,
    launch_overhead_us=1.8,
    host_launch_us=0.0,
    sat_flops=4.0e5,
    tuned_gemm_efficiency=0.34,
    tuned_bandwidth_fraction=0.95,
    tuned_elemwise_efficiency=0.60,
    library=_ARM_BLAS,
)


@dataclass(frozen=True)
class Platform:
    name: str
    host: Device
    compute: Device
    specs: Dict[Device, DeviceSpec]

    @property
    def host_spec(self) -> DeviceSpec:
        return self.specs[self.host]

    @property
    def compute_spec(self) -> DeviceSpec:
        return self.specs[self.compute]

    def spec_of(self, device: Device) -> DeviceSpec:
        try:
            return self.specs[device]
        except KeyError:
            raise NimbleError(f"platform {self.name} has no device {device}") from None

    @property
    def vm_instruction_us(self) -> float:
        return calibration.VM_INSTRUCTION_US[self.name]

    @property
    def max_streams(self) -> int:
        """How many device streams the AOT scheduler may use on this
        platform: the compute device's stream count (1 on synchronous
        CPU platforms — nothing to overlap)."""
        return self.compute_spec.max_streams

    def effective_streams(self, requested: int) -> int:
        """Clamp a requested stream count to what the hardware exposes.
        The clamped value is what gets compiled into executables (and
        their artifact keys): asking a CPU platform for 4 streams IS the
        single-stream build, not a distinct artifact."""
        return max(1, min(int(requested or 1), self.max_streams))

def intel_cpu() -> Platform:
    host = cpu(0)
    return Platform("intel", host, host, {host: _INTEL})


def nvidia_gpu() -> Platform:
    host, dev = cpu(0), gpu(0)
    return Platform("nvidia", host, dev, {host: _GPU_HOST, dev: _T4})


def arm_cpu() -> Platform:
    host = cpu(0)
    return Platform("arm", host, host, {host: _ARM})


_BY_NAME = {"intel": intel_cpu, "nvidia": nvidia_gpu, "arm": arm_cpu}


def platform_by_name(name: str) -> Platform:
    try:
        return _BY_NAME[name]()
    except KeyError:
        raise NimbleError(f"unknown platform {name!r} (choose from {sorted(_BY_NAME)})") from None
