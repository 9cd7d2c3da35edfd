"""Data-dependent shapes: detection post-processing with NMS.

`vision.non_max_suppression` is the paper's example of an *upper-bound*
shape function (§4.2): computing the exact output size costs as much as
the op itself, so the compiler allocates the upper bound and slices to the
actual shape returned by the kernel. This example runs NMS over 32
random candidate boxes entirely through the compiled VM, then runs the
same executable on re-ordered scores to show a second output length.

Run:  python examples/detection_postprocess.py
"""

import numpy as np

import repro.nimble as nimble
from repro.hardware import intel_cpu
from repro.ir import Function, IRModule, TensorType, Var
from repro.ops import api
from repro.vm.interpreter import VirtualMachine


def main():
    n_boxes = 32
    boxes_v = Var("boxes", TensorType((n_boxes, 4), "float32"))
    scores_v = Var("scores", TensorType((n_boxes,), "float32"))

    # keep = nms(boxes, scores): output length is decided at runtime.
    keep = api.non_max_suppression(boxes_v, scores_v, iou_threshold=0.45)
    mod = IRModule.from_expr(Function([boxes_v, scores_v], keep))

    exe, report = nimble.build(mod, intel_cpu())
    vm = VirtualMachine(exe)

    rng = np.random.RandomState(0)
    centers = rng.rand(n_boxes, 2) * 100
    sizes = rng.rand(n_boxes, 2) * 20 + 5
    boxes = np.concatenate([centers - sizes / 2, centers + sizes / 2], axis=1).astype(np.float32)
    scores = rng.rand(n_boxes).astype(np.float32)

    out = vm.run(boxes, scores)
    kept = out.numpy()
    print(f"{n_boxes} candidate boxes -> {kept.shape[0]} kept after NMS")
    print("kept indices:", kept.tolist())
    print(f"\nshape functions ran {vm.profile.shape_func_invocations} times "
          f"(incl. the cheap upper-bound estimate); the result buffer was "
          f"allocated at the upper bound and sliced to the actual size.")

    # Dynamic output: a different input keeps a different number of boxes.
    scores2 = np.sort(scores)[::-1].copy()
    out2 = vm.run(boxes, scores2)
    print(f"second input keeps {out2.numpy().shape[0]} boxes "
          f"(same executable, different output shape)")


if __name__ == "__main__":
    main()
