"""Reading machine state: document diff, drain check, text dump.

All three follow the per-class ``STATE`` tables through
:mod:`repro.state.schema`; none needs a checkpointable machine.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import SimulationError
from .schema import ANY, components, rows, undrained


def diff(a, b, path: str = "") -> Optional[str]:
    """Where two documents (or any two captured values) first differ.

    ``None`` when they are equal, else ``"<path>: <a> != <b>"`` — e.g.
    ``state.smxs[3].blocks[1].warps[0].ready_cycle: 812 != 816``.  Arrays
    compare bit for bit, so NaN payloads and ``-0.0`` count.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"{path}: keys {sorted(map(repr, a.keys() ^ b.keys()))} on one side only"
        pairs = [(f"{path}.{key}" if path else str(key), a[key], b[key]) for key in a]
    elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        pairs = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    elif isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if (a.dtype, a.shape) != (b.dtype, b.shape):
            return f"{path}: {a.dtype}{list(a.shape)} != {b.dtype}{list(b.shape)}"
        bits = f"i{a.itemsize}" if a.dtype.kind == "f" else a.dtype
        where = np.argwhere(a.view(bits) != b.view(bits))
        if not where.size:
            return None
        index = tuple(int(i) for i in where[0])
        return f"{path}{list(index)}: {a[index].item()!r} != {b[index].item()!r}"
    elif type(a) is type(b) and a == b:
        return None
    else:
        return f"{path}: {a!r} != {b!r}"
    for where, x, y in pairs:
        found = diff(x, y, where)
        if found is not None:
            return found
    return None


def check_drained(gpu) -> None:
    """Raise :class:`SimulationError` naming every row that is not at its
    drained value, and every launch that never completed."""
    problems = [
        f"{prefix}{name} holds {held}; a drained machine has {want}"
        for prefix, component in components(gpu)
        for name, held, want in undrained(component, gpu.config)
    ]
    problems += [
        f"stats.launches[{i}]: launch of {record.kernel_name!r} "
        f"({record.kind.value}) never completed"
        for i, record in enumerate(gpu.stats.launches)
        if record.completed_cycle is None
    ]
    if problems:
        raise SimulationError(
            "machine not cleanly drained:\n  " + "\n  ".join(problems)
        )


#: How a reference row reads in a dump.
_NAMES = {
    "record": lambda r: f"{r.kernel_name}@{r.launch_cycle}",
    "age": lambda a: f"group({a.next_block}/{a.total_blocks})",
    "spec": lambda s: f"{s.kernel_name}#{s.seq}",
    "kde": lambda e: f"{e.func.name}[{e.index}]",
    "kernel": lambda f: f.name,
    "smx": lambda s: f"smx{s.smx_id}",
}


def _brief(value, kind="copy") -> str:
    if type(kind) is list:
        held = [v for v in value if v is not None]
        if isinstance(kind[0], type):
            return f"{len(held)}/{len(value)}"
        text = " -> ".join(_brief(v, kind[0]) for v in held)
        if len(held) < len(value):  # a table with holes: its occupancy first
            return f"{len(held)}/{len(value)} {text}".rstrip()
        return text or "(empty)"
    if value is not None and kind in _NAMES:
        return _NAMES[kind](value)
    if isinstance(value, np.ndarray):
        if value.dtype == bool and value.ndim == 1:
            return f"<{int(value.sum())}/{value.size}>"
        return f"<{value.dtype}{list(value.shape)}>"
    if isinstance(value, list) and len(value) <= 16:
        return "[" + ", ".join(_brief(v) for v in value) + "]"
    text = repr(value)
    return text if len(text) <= 80 else f"<{type(value).__name__} of {len(value)}>"


def _line(prefix: str, component) -> str:
    fields = " ".join(
        f"{name}={_brief(getattr(component, name), kind)}"
        for name, kind, _is_arg, _drained in rows(type(component))
        if not isinstance(kind, type)
    )
    return f"{prefix.rstrip('.') or 'gpu'}: {fields}"


def dump_state(gpu) -> str:
    """Every component's rows as text, one line each; list elements at
    their drained values (idle SMXs, empty HWQs) are left out."""

    def idle(child) -> bool:
        return any(row[3] is not ANY for row in rows(type(child))) and not any(
            undrained(c, gpu.config) for _, c in components(child)
        )

    lines = [f"=== GPU state @ cycle {gpu.cycle} ==="]
    lines += [_line(prefix, c) for prefix, c in components(gpu, prune=idle)]
    pending = sorted((cycle, kind or "ad-hoc") for cycle, _s, _f, kind, _p in gpu._events)
    lines.append(f"events: {len(pending)} pending {_brief(pending)}")
    return "\n".join(lines)


def dump_warp(warp) -> str:
    """One warp's rows, its SIMT stack among them: frames are ``[pc, rpc,
    mask]`` on the reference core, ``[pc, rpc, mask, active, full]`` on
    the fast core."""
    tb = warp.tb
    return _line(
        f"warp {warp.warp_index} slot={warp.context_slot} "
        f"block={tb.block_linear_index} kernel={tb.func.name}", warp
    )
