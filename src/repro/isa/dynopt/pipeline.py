"""Whole-application driver for the dynamic-parallelism passes.

:func:`transform_kernels` takes the kernels a workload built for plain
CDP and returns the kernel set for a compiler-optimized mode:

* every kernel is rewritten under its **original name** (so overflow
  fallbacks and host launches resolve unchanged), and
* one wrapper kernel per batched child is generated and itself pushed
  through the passes, to a fixpoint — a recursive child's wrapper may
  simply launch itself (e.g. ``amr_refine__agg``).

Unrecognized launch sites degrade to plain CDP launches; the transform
never fails a kernel, it only declines to optimize parts of it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ...sim.kernel import KernelFunction
from .aggregate import aggregate_launches
from .serialize import serialize_small_launches
from .wrappers import build_wrapper, wrappable

#: mode value -> (aggregation flavor, wrapper suffix, serialize first?)
_FLAVORS = {
    "cdpa": ("agg", "__agg", True),
    "cons": ("cons", "__cons", False),
}


def transform_kernels(kernels: Sequence[KernelFunction], mode) -> List[KernelFunction]:
    """Apply the passes for ``mode`` (``ExecutionMode`` or its value)."""
    mode_value = getattr(mode, "value", mode)
    if mode_value not in _FLAVORS:
        raise ValueError(
            f"no dynopt pipeline for mode {mode_value!r} "
            f"(supported: {', '.join(sorted(_FLAVORS))})"
        )
    flavor, suffix, do_serialize = _FLAVORS[mode_value]
    by_name = {func.name: func for func in kernels}
    wrapper_blocks: Dict[str, int] = {}

    def can_wrap(child: str, block_size: int) -> bool:
        func = by_name.get(child)
        return func is not None and wrappable(func, flavor)

    def run_passes(program, base) -> Tuple[object, int, int]:
        """Serialize + aggregate one program; queue needed wrappers."""
        extra_local = 0
        if do_serialize:
            program, extra_local = serialize_small_launches(program, by_name)
        result = aggregate_launches(
            program,
            suffix=suffix,
            flavor=flavor,
            shared_base=base.shared_words,
            wrapper_blocks=wrapper_blocks,
            can_wrap=can_wrap,
        )
        for child, block_size in sorted(result.children.items()):
            if child + suffix not in built and child not in queued:
                queue.append((child, block_size))
                queued.add(child)
        return (
            result.program,
            base.shared_words + result.shared_words,
            max(base.local_words, extra_local),
        )

    built: Dict[str, Tuple[object, int, int]] = {}
    queue: List[Tuple[str, int]] = []
    queued = set()

    order: List[str] = []
    for func in kernels:
        built[func.name] = run_passes(func.program.definalize(), func)
        order.append(func.name)

    while queue:
        child, block_size = queue.pop(0)
        name = child + suffix
        if name in built:
            continue
        base = by_name[child]
        program = build_wrapper(name, base, block_size, flavor)
        if program is None:
            continue  # can_wrap should have prevented this
        built[name] = run_passes(program, base)
        order.append(name)

    return [
        KernelFunction(
            name=name,
            program=built[name][0],
            shared_words=built[name][1],
            local_words=built[name][2],
        )
        for name in order
    ]
