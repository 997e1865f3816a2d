"""The unified request/result records every execution surface shares.

Before this module, "run the scheme" meant something different at every
layer: the CLI threaded ``--backend``/``--workers`` and tuning flags
into ad-hoc config constructions, the harness took loose kwargs, the
examples built configs by hand, and nothing could be serialized, queued
or replayed.  :class:`RunRequest` and :class:`RunResult` are the one
vocabulary all of them now speak:

* a **request** names a circuit (catalog name or inline ``.bench``
  text), what to run (``"scheme"`` or ``"atpg"``) and the full config
  objects — no scattered kwargs — and round-trips through JSON, so the
  CLI, the test harness, the examples and the HTTP service all construct
  and ship the very same object;
* a **result** separates the *deterministic* payload (``data`` — every
  number the paper's tables report, plus the selected sequences
  themselves) from machine-dependent observability (``timings``,
  ``trace_stats``, ``execution``), and :meth:`RunResult.fingerprint`
  hashes only the deterministic part — two runs of one request are
  bit-identical exactly when their fingerprints match, which is the
  parity contract the serving tests and CI smoke lane assert.

Circuits are identified across processes and requests by
:func:`circuit_content_hash` — a digest of the canonical ``.bench``
serialization — which is also the key the session facade uses to share
compiled circuits, program LRUs and good-machine trace caches between
requests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.circuit.bench_io import write_bench
from repro.circuit.netlist import Circuit
from repro.core.config import SelectionConfig
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (atpg -> session -> here)
    from repro.atpg.config import AtpgConfig

#: Request kinds :class:`RunRequest` accepts.
RUN_KINDS = ("scheme", "atpg")


def circuit_content_hash(circuit: Circuit) -> str:
    """Content digest of a circuit's canonical ``.bench`` serialization.

    Equal netlists hash equal no matter how they were loaded (catalog
    name, file, inline text), so cross-request caches keyed by this hash
    are shared by every client that submits the same circuit.
    """
    return hashlib.sha256(write_bench(circuit).encode("utf-8")).hexdigest()


def canonical_json(payload) -> str:
    """Deterministic JSON text (sorted keys, no whitespace drift)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunRequest:
    """Everything needed to run one job, as one serializable value.

    Attributes:
        kind: ``"scheme"`` (the paper's load-and-expand flow) or
            ``"atpg"`` (generate ``T0`` only).
        circuit: catalog circuit name (``repro.circuits.load_circuit``);
            empty when ``bench`` carries an inline netlist.
        bench: inline ``.bench`` netlist text, for circuits outside the
            catalog — what a service client uploads.
        selection: Procedure 1/2 parameters for ``kind="scheme"``
            (defaults to :class:`SelectionConfig()`).
        atpg: ``T0``-generation parameters — the whole job for
            ``kind="atpg"``, the T0 source for scheme runs that need one.
        use_paper_t0: for ``s27`` scheme runs, use the paper's published
            ``T0`` (Table 2) instead of running ATPG.
        label: free-form client tag, echoed into the result.
    """

    kind: str
    circuit: str = ""
    bench: str | None = None
    selection: SelectionConfig | None = None
    atpg: AtpgConfig | None = None
    use_paper_t0: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in RUN_KINDS:
            raise ReproError(
                f"unknown run kind {self.kind!r}; expected one of {RUN_KINDS}"
            )
        if not self.circuit and not self.bench:
            raise ReproError(
                "a RunRequest needs a catalog circuit name or inline bench text"
            )

    def with_workers(self, workers: int) -> "RunRequest":
        """A copy with both configs' worker counts replaced (planning)."""
        selection = self.selection
        if selection is not None and selection.workers != workers:
            selection = replace(selection, workers=workers)
        atpg = self.atpg
        if atpg is not None and atpg.workers != workers:
            atpg = replace(atpg, workers=workers)
        if selection is self.selection and atpg is self.atpg:
            return self
        return replace(self, selection=selection, atpg=atpg)

    def with_parallel(self, parallel: str) -> "RunRequest":
        """A copy with both configs' distribution tiers replaced (planning)."""
        selection = self.selection
        if selection is not None and selection.parallel != parallel:
            selection = replace(selection, parallel=parallel)
        atpg = self.atpg
        if atpg is not None and atpg.parallel != parallel:
            atpg = replace(atpg, parallel=parallel)
        if selection is self.selection and atpg is self.atpg:
            return self
        return replace(self, selection=selection, atpg=atpg)

    # ------------------------------------------------------------------
    # JSON round-trip (the service wire format)
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "circuit": self.circuit,
            "bench": self.bench,
            "selection": None if self.selection is None else self.selection.to_json(),
            "atpg": None if self.atpg is None else self.atpg.to_json(),
            "use_paper_t0": self.use_paper_t0,
            "label": self.label,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "RunRequest":
        from repro.atpg.config import AtpgConfig

        data = dict(payload)
        selection = data.get("selection")
        if selection is not None and not isinstance(selection, SelectionConfig):
            data["selection"] = SelectionConfig.from_json(selection)
        atpg = data.get("atpg")
        if atpg is not None and not isinstance(atpg, AtpgConfig):
            data["atpg"] = AtpgConfig.from_json(atpg)
        return cls(**data)


@dataclass(frozen=True)
class RunResult:
    """One job's outcome: deterministic payload plus observability.

    ``data`` holds everything that is a pure function of the request —
    detection counts, selected/compacted sequence sets (as vector
    strings), lengths, ratios.  ``execution`` records what actually ran
    (backend, workers, batch widths, whether a machine profile overrode
    the request), ``timings`` the wall-clock seconds per phase and
    ``trace_stats`` the good-machine trace-cache counters at completion —
    all machine-dependent, all excluded from :meth:`fingerprint`.
    """

    kind: str
    circuit_name: str
    circuit_hash: str
    data: dict = field(default_factory=dict)
    execution: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    trace_stats: dict = field(default_factory=dict)
    label: str = ""

    def fingerprint(self) -> str:
        """Digest of the deterministic payload only.

        Two runs of the same request — any backend, any worker count,
        any machine, served or direct — must produce equal fingerprints;
        this is the bit-identity contract the serving tests assert.
        """
        body = canonical_json(
            {
                "kind": self.kind,
                "circuit_name": self.circuit_name,
                "circuit_hash": self.circuit_hash,
                "data": self.data,
            }
        )
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "circuit_name": self.circuit_name,
            "circuit_hash": self.circuit_hash,
            "data": self.data,
            "execution": self.execution,
            "timings": self.timings,
            "trace_stats": self.trace_stats,
            "label": self.label,
            "fingerprint": self.fingerprint(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "RunResult":
        data = dict(payload)
        claimed = data.pop("fingerprint", None)
        result = cls(**data)
        if claimed is not None and claimed != result.fingerprint():
            raise ReproError(
                "RunResult payload does not match its claimed fingerprint"
            )
        return result
