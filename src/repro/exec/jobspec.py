"""The canonical job model: one spec, one result, one execution path.

Every way of running a simulation in this repository — the two CLIs, the
:class:`~repro.exec.pool.SweepEngine` (in-process or on its workers) and
the :mod:`repro.serve` daemon — consumes the same :class:`JobSpec`: the
full description of *what* to simulate (benchmark, mode, dataset scale,
launch-latency scale, GPU configuration, verification) plus the execution
policy for *how* to run it (periodic checkpointing and the checkpoint
directory a job continues from).  :func:`run_job` is the single function
that turns a spec into a :class:`JobResult`; everything else is routing.

Identity vs. policy
-------------------
Only the *what* participates in :meth:`JobSpec.fingerprint` (the
content-addressed identity reused by the result cache and the sweep
engine, built on :mod:`repro.exec.fingerprint`): two specs that differ
only in checkpoint policy describe the same simulation and share one
cache key.  The digest prefix (``"SweepJob"``, the model's first name)
and document layout have never changed, so fingerprints — and with them
all existing cache entries and checkpoint filenames — are stable.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..config import GPUConfig
from ..runtime import ExecutionMode
from ..sim.sanitizer import SanitizerReport, sanitize_enabled
from ..sim.stats import SimStats
from . import fingerprint as _fingerprint
from .cli import config_from_flags


class SpecError(ValueError):
    """A :class:`JobSpec` failed validation."""


@dataclass(frozen=True)
class JobSpec:
    """One fully specified simulation: the unit of submission everywhere.

    The first six fields are the job's *identity* (hashed into
    :meth:`fingerprint`); the checkpoint fields are *execution policy*
    and deliberately excluded from the hash — resuming a job from a
    checkpoint must find the same cache key and checkpoint file an
    uninterrupted run would use.
    """

    benchmark: str
    mode: ExecutionMode
    scale: float
    latency_scale: float
    config: GPUConfig = field(default_factory=GPUConfig.k20c)
    verify: bool = True
    #: Snapshot the full simulator state every N cycles (``None``: never).
    checkpoint_every: Optional[int] = None
    #: Directory for ``<fingerprint>.ckpt`` files (``None``: in-memory
    #: checkpoint callbacks only, no files).  A job continues from its
    #: file there whenever one exists.
    checkpoint_dir: Optional[str] = None

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def document(self) -> dict:
        """The canonical JSON-safe description this job hashes to."""
        return {
            "benchmark": self.benchmark,
            "mode": self.mode.value,
            "scale": self.scale,
            "latency_scale": self.latency_scale,
            "config": self.config.to_dict(),
            "verify": self.verify,
            "sanitize": sanitize_enabled(self.config),
        }

    def fingerprint(self) -> str:
        """Content hash identifying this job (includes the code salt).

        The prefix is ``"SweepJob"`` for continuity with the original
        model: every previously written cache entry and checkpoint stays
        addressable.

        Computed once per instance and per value of the two inputs that
        live outside it, :data:`~repro.exec.fingerprint.CODE_VERSION` and
        the :func:`~repro.sim.sanitizer.sanitize_enabled` answer; the memo
        travels with a pickled spec and is not copied by
        :func:`dataclasses.replace`.
        """
        salt = (_fingerprint.CODE_VERSION, sanitize_enabled(self.config))
        memo = self.__dict__.get("_fingerprint_memo")
        if memo is None or memo[0] != salt:
            memo = (salt, _fingerprint.digest("SweepJob", self.document()))
            object.__setattr__(self, "_fingerprint_memo", memo)
        return memo[1]

    def label(self) -> str:
        """Short human-readable tag for progress output."""
        return f"{self.benchmark}/{self.mode.value}"

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> "JobSpec":
        """Raise :class:`SpecError` on an unusable spec; returns self."""
        if not self.benchmark or not isinstance(self.benchmark, str):
            raise SpecError("benchmark must be a non-empty string")
        if not isinstance(self.mode, ExecutionMode):
            raise SpecError(f"mode must be an ExecutionMode, not {self.mode!r}")
        if not self.scale > 0:
            raise SpecError(f"scale must be > 0, got {self.scale!r}")
        if not self.latency_scale > 0:
            raise SpecError(
                f"latency_scale must be > 0, got {self.latency_scale!r}"
            )
        if not isinstance(self.config, GPUConfig):
            raise SpecError(f"config must be a GPUConfig, not {self.config!r}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise SpecError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every!r}"
            )
        return self

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        benchmark: str,
        mode: ExecutionMode,
        scale: float,
        latency_scale: float,
        config: Optional[GPUConfig] = None,
        verify: bool = True,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
    ) -> "JobSpec":
        """Build a spec, canonicalizing ``config=None`` to the default.

        ``config=None`` and ``config=GPUConfig.k20c()`` describe the same
        simulation; canonicalizing here keeps them one cache key.
        """
        return cls(
            benchmark=benchmark,
            mode=mode if isinstance(mode, ExecutionMode)
            else ExecutionMode.parse(str(mode)),
            scale=float(scale),
            latency_scale=float(latency_scale),
            config=config if config is not None else GPUConfig.k20c(),
            verify=verify,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
        )

    @classmethod
    def from_args(
        cls,
        args,
        benchmark: str,
        mode: ExecutionMode,
        checkpoint_dir: Optional[str] = None,
    ) -> "JobSpec":
        """Build a spec from a parsed CLI namespace (see :mod:`.cli`).

        Reads the shared flags declared by ``add_job_flags`` /
        ``add_execution_flags``: ``--scale``, ``--latency-scale``,
        ``--core``, ``--sanitize``, ``--no-verify`` (when the CLI declares it), and the
        checkpoint flags.  ``checkpoint_dir`` is the *validated*
        directory from ``validate_execution_flags`` — ``None`` unless
        checkpointing was requested.
        """
        return cls.create(
            benchmark,
            mode,
            getattr(args, "scale", 1.0),
            getattr(args, "latency_scale", 1.0),
            config=config_from_flags(args),
            verify=not getattr(args, "no_verify", False),
            checkpoint_every=getattr(args, "checkpoint_every", None),
            checkpoint_dir=checkpoint_dir,
        ).validate()

    def with_policy(
        self,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
    ) -> "JobSpec":
        """A copy with the given execution-policy fields replaced.

        ``None`` leaves a field untouched (use field defaults via
        ``dataclasses.replace`` to clear one explicitly).
        """
        changes = {}
        if checkpoint_every is not None:
            changes["checkpoint_every"] = checkpoint_every
        if checkpoint_dir is not None:
            changes["checkpoint_dir"] = str(checkpoint_dir)
        return dataclasses.replace(self, **changes) if changes else self

    def with_default_policy(
        self,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
    ) -> "JobSpec":
        """This spec, with the given checkpoint policy if it has none.

        A spec that sets either checkpoint field keeps its own policy
        whole; otherwise the fields are replaced as by :meth:`with_policy`.
        """
        if self.checkpoint_every is not None or self.checkpoint_dir is not None:
            return self
        return self.with_policy(checkpoint_every, checkpoint_dir)

    # ------------------------------------------------------------------
    # Serialization (the daemon's wire format)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless JSON-safe encoding (see :meth:`from_dict`)."""
        return {
            "benchmark": self.benchmark,
            "mode": self.mode.value,
            "scale": self.scale,
            "latency_scale": self.latency_scale,
            "config": self.config.to_dict(),
            "verify": self.verify,
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_dir": self.checkpoint_dir,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Decode :meth:`to_dict` output (or a hand-written subset).

        Only ``benchmark`` and ``mode`` are required; everything else
        defaults.  Unknown keys, and values not of their field's exact
        type, raise :class:`SpecError` so a client typo (``"latency": …``,
        ``"verify": "false"``) fails loudly instead of silently simulating
        the wrong thing.
        """
        if not isinstance(data, dict):
            raise SpecError(f"spec must be an object, not {type(data).__name__}")
        unknown = set(data) - _WIRE_FIELDS
        if unknown:
            raise SpecError(f"unknown spec fields: {sorted(unknown)}")
        missing = {"benchmark", "mode"} - set(data)
        if missing:
            raise SpecError(f"spec is missing fields: {sorted(missing)}")
        for name, types in _WIRE_TYPES.items():
            if name in data and type(data[name]) not in types:
                raise SpecError(
                    f"{name} must be "
                    f"{' or '.join(t.__name__ for t in types)}, "
                    f"got {type(data[name]).__name__} {data[name]!r}"
                )
        mode = data["mode"]
        try:
            mode = (
                mode if isinstance(mode, ExecutionMode)
                else ExecutionMode.parse(mode)
            )
        except Exception as exc:
            raise SpecError(f"unknown mode {data['mode']!r}") from exc
        config = data.get("config")
        if config is not None and not isinstance(config, GPUConfig):
            try:
                config = GPUConfig.from_dict(config)
            except Exception as exc:
                raise SpecError(f"bad config: {exc}") from exc
        return cls.create(
            data["benchmark"],
            mode,
            data.get("scale", 1.0),
            data.get("latency_scale", 1.0),
            config=config,
            verify=data.get("verify", True),
            checkpoint_every=data.get("checkpoint_every"),
            checkpoint_dir=data.get("checkpoint_dir") or None,
        ).validate()


#: What :meth:`JobSpec.from_dict` accepts for each field but ``config``,
#: by exact type: ``"false"`` is not a bool, ``True`` is not a scale.
_WIRE_TYPES = {
    "benchmark": (str,),
    "mode": (str, ExecutionMode),
    "scale": (int, float),
    "latency_scale": (int, float),
    "verify": (bool,),
    "checkpoint_every": (int, type(None)),
    "checkpoint_dir": (str, type(None)),
}
_WIRE_FIELDS = frozenset(_WIRE_TYPES) | {"config"}


@dataclass
class JobResult:
    """Outcome of one executed :class:`JobSpec`.

    ``to_payload``/``from_payload`` round-trip through the same JSON-safe
    dictionary the result cache and the worker pool have always used
    (``{"stats", "wall_seconds", "sanitizer"}``), so on-disk entries and
    inter-process payloads are unchanged.
    """

    stats: SimStats
    wall_seconds: float
    sanitizer: Optional[SanitizerReport] = None
    #: Content fingerprint of the spec that produced this result.
    fingerprint: Optional[str] = None
    #: Where the result came from: ``"run"``, ``"cache"`` or ``"shared"``
    #: (another in-flight job with the same fingerprint).
    source: str = "run"

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    def to_payload(self) -> dict:
        """The JSON-safe payload dictionary (cache/wire format).

        JSON-safe for :mod:`repro.exec.codec`: every counter fits in 64
        bits and ``wall_seconds`` is finite.  A counter of 2**64 or more
        would make :meth:`ResultCache.store` raise ``TypeError``.
        """
        return {
            "stats": self.stats.to_dict(),
            "wall_seconds": self.wall_seconds,
            # "is not None": a clean report has length 0 and must survive.
            "sanitizer": (
                self.sanitizer.to_dict() if self.sanitizer is not None else None
            ),
        }

    @classmethod
    def from_payload(
        cls,
        payload: dict,
        fingerprint: Optional[str] = None,
        source: str = "cache",
    ) -> "JobResult":
        """Decode a payload dictionary (raises on structural problems)."""
        sanitizer = payload.get("sanitizer")
        return cls(
            stats=SimStats.from_dict(payload["stats"]),
            wall_seconds=float(payload["wall_seconds"]),
            sanitizer=SanitizerReport.from_dict(sanitizer) if sanitizer else None,
            fingerprint=fingerprint,
            source=source,
        )


def run_job(
    spec: JobSpec,
    on_checkpoint: Optional[Callable[[dict], None]] = None,
) -> JobResult:
    """Execute one spec in the current process: THE execution path.

    The sweep engine's in-process path (serial runs, the fallback) and
    every worker process, the engine's or the daemon's, come through
    here, which is what makes them bit-identical.  With
    ``spec.checkpoint_dir`` set, the job checkpoints to
    ``<dir>/<fingerprint>.ckpt`` every ``spec.checkpoint_every`` cycles,
    and continues from such a file when one exists (stale or corrupt
    files are quarantined and the job starts fresh).  Because the
    simulation is deterministic and a restore is bit-identical, a resumed
    result equals an uninterrupted run's.
    """
    from ..workloads import get_benchmark

    workload = get_benchmark(spec.benchmark, spec.mode, spec.scale)
    start = time.perf_counter()
    result = workload.execute_spec(spec, on_checkpoint=on_checkpoint)
    # The workload's device handles hold the job's closed GPU: dropping
    # them frees it here, inside the timed region that built it.
    del workload
    return JobResult(
        stats=result.stats,
        wall_seconds=time.perf_counter() - start,
        sanitizer=result.sanitizer,
        fingerprint=spec.fingerprint(),
        source="run",
    )
