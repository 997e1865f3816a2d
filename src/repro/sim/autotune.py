"""Startup autotuning: measure this machine, persist a profile.

The static execution defaults are tuned for the *average* machine: the
batch widths in :mod:`repro.core.config` were measured on one
development host, and the committed smoke baselines show how wrong a
static guess can be — ``workers=4`` runs at 0.32–0.87x *serial*
throughput on the 1-core CI runner.  The serving layer
(:mod:`repro.serve`) amortizes whatever is decided across every request
it ever handles, so it is worth a few hundred milliseconds at startup to
measure the actual machine instead of trusting defaults.

This module provides:

* :class:`MachineProfile` — a frozen record of what was measured: the
  recommended thread count, per-axis serial-vs-threaded speedups and the
  fastest batch widths, with a JSON round-trip and ``save``/``load``
  helpers (default location: ``~/.cache/repro/machine_profile.json``,
  overridden by ``REPRO_PROFILE``).  It is plain data; the policy that
  reads it is :func:`~repro.sim.workerpool.resolve_execution`.
* :func:`calibrate` — run the measurement pass: time parallel-fault
  simulation and Procedure 2-shaped candidate scans serially and on
  chunk threads, and sweep a few batch widths per axis.  The best
  measured speedup picks the work-distribution tier (serial/threads)
  recorded as ``parallel_mode``.  On a 1-core machine (per
  :func:`~repro.sim.workerpool.cpu_count`, which honours
  ``REPRO_ASSUME_CPUS``) the threaded measurements are skipped — threads
  cannot win without a second core — and the profile records serial
  execution directly.
* :func:`static_profile` — the no-measurement fallback mirroring today's
  static defaults, so consumers can always hold *some* profile.

Consumers: :class:`repro.core.session.Session` hands its profile to the
simulator factories and the serve scheduler (:mod:`repro.serve.scheduler`)
to :func:`~repro.sim.workerpool.resolve_execution`, which turns the
measurement into each job's tier and worker count.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro.errors import SimulationError
from repro.util.rng import SplitMix64
from repro.util.timing import Stopwatch

#: Profile format version; bumped when fields change incompatibly.  v2
#: added the work-distribution tier verdict (``parallel_mode``,
#: ``threads`` and the per-axis thread speedups); v3 dropped the
#: per-axis scan-mode fields; v4 dropped the process tier (its
#: ``"processes"`` verdict, the shard speedups and the separate
#: ``threads`` count).  Older profiles are rejected on load, which makes
#: :func:`profile_for_startup` recalibrate rather than run with a stale
#: verdict.
PROFILE_VERSION = 4

#: Environment override for the persisted profile location.
PROFILE_ENV = "REPRO_PROFILE"

#: Chunk threads must beat serial by this factor before a calibrated
#: profile recommends them — a 1.02x "win" is measurement noise, not a
#: policy.
THREAD_SPEEDUP_THRESHOLD = 1.1

#: Batch-width sweep candidates per engine, per axis.  The python triples
#: are centred on the static defaults in ``repro.core.config``.
_WIDTH_CANDIDATES: dict[str, dict[str, tuple[int, ...]]] = {
    "python": {
        "fault": (96, 192, 384),
        "search": (16, 32, 64),
        "omission": (48, 96, 192),
    },
    "native": {
        "fault": (512, 1024, 2048),
        "search": (64, 128, 256),
        "omission": (128, 256, 512),
    },
}


@dataclass(frozen=True)
class MachineProfile:
    """What calibration learned about this machine.

    Attributes:
        cpu_count: usable cores at calibration time.
        workers: the recommended thread count (``1`` = serial execution).
        backend: the fastest available engine (``"native"`` or
            ``"python"``).
        fault_batch_width: fastest measured parallel-fault batch width.
        search_batch_width: fastest measured window-search batch width.
        omission_batch_width: fastest measured omission batch width.
        parallel_mode: the measured work-distribution verdict —
            ``"serial"`` or ``"threads"`` (chunk threads); ``"auto"``
            when nothing was measured (static profiles), which
            :func:`~repro.sim.workerpool.resolve_execution` ignores.
        fault_thread_speedup: measured threaded/serial throughput ratio
            on the fault axis (``0.0`` = not measured).
        candidate_thread_speedup: same for the candidate axis.
        source: ``"static"`` (defaults, nothing measured) or
            ``"calibrated"`` (a real measurement pass ran).
        notes: human-readable trail of what calibration decided and why.
    """

    cpu_count: int
    workers: int
    backend: str
    fault_batch_width: int
    search_batch_width: int
    omission_batch_width: int
    parallel_mode: str = "auto"
    fault_thread_speedup: float = 0.0
    candidate_thread_speedup: float = 0.0
    source: str = "static"
    notes: tuple[str, ...] = ()

    @property
    def calibrated(self) -> bool:
        return self.source == "calibrated"

    # ------------------------------------------------------------------
    # JSON round-trip and persistence
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        payload = asdict(self)
        payload["notes"] = list(self.notes)
        payload["version"] = PROFILE_VERSION
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "MachineProfile":
        data = dict(payload)
        version = data.pop("version", PROFILE_VERSION)
        if version != PROFILE_VERSION:
            raise SimulationError(
                f"unsupported machine-profile version {version!r} "
                f"(expected {PROFILE_VERSION})"
            )
        data["notes"] = tuple(data.get("notes", ()))
        return cls(**data)

    def save(self, path: str | Path | None = None) -> Path:
        """Write the profile as JSON; returns the path written."""
        target = Path(path) if path is not None else default_profile_path()
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return target

    @classmethod
    def load(cls, path: str | Path | None = None) -> "MachineProfile":
        target = Path(path) if path is not None else default_profile_path()
        return cls.from_json(json.loads(target.read_text(encoding="utf-8")))


def default_profile_path() -> Path:
    """Where profiles persist (``REPRO_PROFILE`` overrides)."""
    override = os.environ.get(PROFILE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "machine_profile.json"


def load_profile(path: str | Path | None = None) -> MachineProfile | None:
    """Load a persisted profile, or ``None`` when none exists/parses."""
    try:
        return MachineProfile.load(path)
    except FileNotFoundError:
        return None
    except (OSError, ValueError, TypeError, SimulationError):
        return None


def _preferred_backend() -> str:
    """The fastest engine available in this process: native, else python."""
    from repro.sim.backend import backend_unavailable_reason

    return "native" if backend_unavailable_reason("native") is None else "python"


def static_profile() -> MachineProfile:
    """The defaults-only profile (mirrors today's static thresholds)."""
    from repro.sim.workerpool import cpu_count

    backend = _preferred_backend()
    family = _WIDTH_CANDIDATES[backend]
    return MachineProfile(
        cpu_count=cpu_count(),
        workers=1,
        backend=backend,
        fault_batch_width=family["fault"][1],
        search_batch_width=family["search"][1],
        omission_batch_width=family["omission"][1],
        source="static",
        notes=("static defaults; run `repro calibrate` to measure",),
    )


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _time(fn) -> float:
    """Seconds one call takes (tests monkeypatch this for determinism)."""
    watch = Stopwatch().start()
    fn()
    return max(watch.stop(), 1e-9)


def _calibration_stimulus(num_inputs: int, length: int, seed: int):
    from repro.core.sequence import TestSequence

    rng = SplitMix64(seed)
    return TestSequence(
        [[rng.next_u64() & 1 for _ in range(num_inputs)] for _ in range(length)]
    )


def _measure_fault_axis(
    compiled, faults, stimulus, backend: str, widths: tuple[int, ...], threads: int
) -> tuple[int, float, list[str]]:
    """Best fault batch width and the threaded/serial speedup."""
    from repro.sim.faultsim import FaultSimulator

    timings: dict[int, float] = {}
    for width in widths:
        simulator = FaultSimulator(compiled, batch_width=width, backend=backend)
        timings[width] = _time(lambda: simulator.run(stimulus, faults))
    best_width = min(timings, key=timings.get)
    notes = [
        "fault widths "
        + ", ".join(f"{w}:{timings[w] * 1e3:.0f}ms" for w in widths)
        + f" -> {best_width}"
    ]
    speedup = 0.0
    if threads > 1:
        threaded = FaultSimulator(
            compiled, batch_width=best_width, backend=backend, threads=threads
        )
        speedup = timings[best_width] / _time(lambda: threaded.run(stimulus, faults))
        notes.append(f"fault axis threads x{threads}: {speedup:.2f}x serial throughput")
    return best_width, speedup, notes


def _measure_candidate_axis(
    compiled, fault, stimulus, backend: str, widths: tuple[int, ...], threads: int
) -> tuple[int, float, list[str]]:
    """Best search batch width and the threaded/serial speedup."""
    from repro.core.ops import ExpansionConfig
    from repro.sim.seqsim import SequenceBatchSimulator

    expansion = ExpansionConfig(repetitions=1)
    spans = [(0, end) for end in range(len(stimulus))]
    timings: dict[int, float] = {}
    for width in widths:
        simulator = SequenceBatchSimulator(compiled, batch_width=width, backend=backend)
        timings[width] = _time(
            lambda: simulator.detects_windows(fault, stimulus, spans, expansion)
        )
    best_width = min(timings, key=timings.get)
    notes = [
        "search widths "
        + ", ".join(f"{w}:{timings[w] * 1e3:.0f}ms" for w in widths)
        + f" -> {best_width}"
    ]
    speedup = 0.0
    if threads > 1:
        threaded = SequenceBatchSimulator(
            compiled, batch_width=best_width, backend=backend, threads=threads
        )
        speedup = timings[best_width] / _time(
            lambda: threaded.detects_windows(fault, stimulus, spans, expansion)
        )
        notes.append(
            f"candidate axis threads x{threads}: {speedup:.2f}x serial throughput"
        )
    return best_width, speedup, notes


def calibrate(
    quick: bool = True,
    circuit_name: str | None = None,
    workers: int | None = None,
    seed: int = 1999,
) -> MachineProfile:
    """Measure this machine and return a calibrated profile.

    ``quick=True`` (the default, and what service startup uses) measures
    on a small catalog circuit with a short stimulus — a few hundred
    milliseconds; ``quick=False`` uses a larger circuit and stimulus for
    stabler crossovers.  ``workers`` pins the threaded measurement's
    thread count (default: one per CPU, capped at 4 — the committed
    bench configurations).  Measurement is throughput-only: detection
    results are backend-, width- and thread-independent by construction,
    so calibration never changes any answer, only how fast it arrives.
    """
    from repro.circuits.catalog import load_circuit
    from repro.faults.universe import FaultUniverse
    from repro.sim.compiled import CompiledCircuit
    from repro.sim.workerpool import cpu_count

    cpus = cpu_count()
    backend = _preferred_backend()
    family = _WIDTH_CANDIDATES[backend]
    notes: list[str] = [f"cpus={cpus} backend={backend}"]

    if circuit_name is None:
        circuit_name = "syn298" if quick else "syn1423"
    stimulus_length = 48 if quick else 192

    threads = 0
    if cpus <= 1:
        notes.append("1 core: threads cannot win, measuring serial only")
    elif backend != "native":
        notes.append("python engine holds the GIL: thread tier skipped")
    else:
        threads = workers if workers and workers > 1 else min(cpus, 4)

    compiled = CompiledCircuit(load_circuit(circuit_name))
    universe = FaultUniverse(compiled.circuit)
    faults = list(universe.faults())
    stimulus = _calibration_stimulus(
        compiled.num_inputs, stimulus_length, seed
    )
    notes.append(
        f"workload {circuit_name}: {len(faults)} faults, "
        f"{stimulus_length}-vector stimulus"
    )

    fault_width, fault_speedup, fault_notes = _measure_fault_axis(
        compiled, faults, stimulus, backend, family["fault"], threads
    )
    notes.extend(fault_notes)

    probe_fault = faults[len(faults) // 2]
    search_width, candidate_speedup, search_notes = _measure_candidate_axis(
        compiled, probe_fault, stimulus, backend, family["search"], threads
    )
    notes.extend(search_notes)

    # Tier verdict: threads must beat serial by the noise threshold.
    best = max(fault_speedup, candidate_speedup)
    parallel_mode = "serial"
    recommended = 1
    if threads > 1 and best >= THREAD_SPEEDUP_THRESHOLD:
        parallel_mode = "threads"
        recommended = threads
        notes.append(
            f"threads win ({best:.2f}x >= {THREAD_SPEEDUP_THRESHOLD}x): "
            f"threads x{recommended}"
        )
    elif threads > 1:
        notes.append(
            f"threads lose ({best:.2f}x < {THREAD_SPEEDUP_THRESHOLD}x): "
            "serial execution"
        )

    # The omission axis shares the candidate pipeline; scale its static
    # default by the same factor the search sweep preferred.
    statics = _WIDTH_CANDIDATES[backend]
    omission_width = statics["omission"][1] * search_width // statics["search"][1]

    return MachineProfile(
        cpu_count=cpus,
        workers=recommended,
        backend=backend,
        fault_batch_width=fault_width,
        search_batch_width=search_width,
        omission_batch_width=max(1, omission_width),
        parallel_mode=parallel_mode,
        fault_thread_speedup=round(fault_speedup, 3),
        candidate_thread_speedup=round(candidate_speedup, 3),
        source="calibrated",
        notes=tuple(notes),
    )


def profile_for_startup(
    path: str | Path | None = None,
    quick: bool = True,
    refresh: bool = False,
    save: bool = True,
) -> MachineProfile:
    """The profile a long-lived process should start from.

    Loads the persisted profile when present (unless ``refresh``),
    otherwise calibrates and (by default) persists the result.  Falls
    back to :func:`static_profile` if calibration itself fails — a
    serving process must come up even on a machine where the measurement
    pass cannot run.
    """
    if not refresh:
        existing = load_profile(path)
        if existing is not None:
            return existing
    try:
        profile = calibrate(quick=quick)
    except Exception:  # pragma: no cover - calibration is best-effort
        return static_profile()
    if save:
        try:
            profile.save(path)
        except OSError:  # pragma: no cover - read-only home, etc.
            profile = replace(
                profile, notes=profile.notes + ("profile not persisted",)
            )
    return profile
