"""Shared fixtures: reference circuits and sequences used across the suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Circuit
from repro.circuits.catalog import load_circuit, paper_t0_s27
from repro.circuits.generator import SyntheticSpec, generate_circuit
from repro.core.sequence import TestSequence
from repro.faults.universe import FaultUniverse
from repro.sim import workerpool
from repro.sim.backend import (
    SimBackend,
    backend_unavailable_reason,
    dispatch_counters,
    get_backend,
)
from repro.sim.compiled import CompiledCircuit


@pytest.fixture
def require_backend():
    """Skip-with-reason gate for registry-parametrized backend axes.

    Suites parametrize over :func:`repro.sim.backend.registry_backends`
    (every registered engine, so new backends are auto-covered) and call
    this on the parameter: an engine unusable on this machine — no C
    compiler, ``REPRO_NO_NATIVE=1`` — becomes an explicit
    skip carrying its unavailability reason instead of a failure.
    """

    def _require(name: str) -> str:
        reason = backend_unavailable_reason(name)
        if reason is not None:
            pytest.skip(f"backend {name!r} unavailable: {reason}")
        return name

    return _require


@pytest.fixture(scope="session")
def base_loop_backend():
    """Factory for an engine that scans and traces on the base loops.

    ``make(compiled, name)`` returns a fresh instance of ``name``'s
    backend class whose ``run_scan`` and ``run_good_trace`` are
    :meth:`SimBackend.run_scan` and :meth:`SimBackend.run_good_trace` —
    the per-step specifications every engine's own scan and trace must
    match.  Pass it as a simulator's ``backend=``; instances are never
    memoized, so the circuit's shared backend keeps its own paths.
    """

    def _make(compiled: CompiledCircuit, name: str) -> SimBackend:
        class BaseLoop(type(get_backend(compiled, name))):
            run_scan = SimBackend.run_scan
            run_good_trace = SimBackend.run_good_trace

        return BaseLoop(compiled)

    return _make


@pytest.fixture(scope="session")
def fanned_out():
    """Context-manager factory: every chunk-threaded dispatch fans out.

    Test-sized fault lists and plans sit far below the chunk-thread
    fan-out floor (:data:`repro.sim.workerpool.FAN_OUT_FLOOR`), so a
    ``threads=N`` simulator would run them serially.  Inside
    ``with fanned_out() as count:`` the floor is zero (the unit rule of
    :func:`~repro.sim.workerpool.fans_out` still holds), and
    ``count(kind)`` returns how much a dispatch counter grew since the
    block began: ``count()`` the chunks that ran on pool threads — the
    proof that the parity checked inside really crossed threads — and
    ``count("chunk_fanouts")`` the dispatches that fanned out.
    Session-scoped so hypothesis tests can use it.
    """

    @contextmanager
    def _fanned_out():
        before = dispatch_counters()

        def count(kind: str = "pool_chunks") -> int:
            return dispatch_counters().get(kind, 0) - before.get(kind, 0)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(workerpool, "FAN_OUT_FLOOR", 0)
            yield count

    return _fanned_out


@pytest.fixture(scope="session")
def s27() -> Circuit:
    """The real ISCAS-89 s27 netlist."""
    return load_circuit("s27")


@pytest.fixture(scope="session")
def s27_compiled(s27) -> CompiledCircuit:
    return CompiledCircuit(s27)


@pytest.fixture(scope="session")
def s27_universe(s27) -> FaultUniverse:
    return FaultUniverse(s27)


@pytest.fixture(scope="session")
def s27_t0() -> TestSequence:
    """The paper's Table 2 test sequence for s27."""
    return paper_t0_s27()


@pytest.fixture(scope="session")
def tiny_combinational() -> Circuit:
    """y = NAND(a, b) with no state — the smallest interesting circuit."""
    builder = CircuitBuilder("tiny_comb")
    builder.add_input("a")
    builder.add_input("b")
    builder.add_nand("y", "a", "b")
    builder.add_output("y")
    return builder.build()


@pytest.fixture(scope="session")
def toggle_circuit() -> Circuit:
    """A one-flop toggle: q' = XOR(en, q), observed through a buffer."""
    builder = CircuitBuilder("toggle")
    builder.add_input("en")
    builder.add_flop("q", "d")
    builder.add_xor("d", "en", "q")
    builder.add_buf("out", "q")
    builder.add_output("out")
    return builder.build()


@pytest.fixture(scope="session")
def resettable_toggle() -> Circuit:
    """A toggle with a synchronous reset path so it initializes from all-X.

    ``d = AND(rst_n, XOR(en, q))`` — driving ``rst_n = 0`` forces the flop
    to a known 0 regardless of the X initial state.
    """
    builder = CircuitBuilder("resettable_toggle")
    builder.add_input("en")
    builder.add_input("rst_n")
    builder.add_flop("q", "d")
    builder.add_xor("t", "en", "q")
    builder.add_and("d", "rst_n", "t")
    builder.add_not("out", "q")
    builder.add_output("out")
    return builder.build()


@pytest.fixture(scope="session")
def small_synthetic() -> Circuit:
    """A small synthetic sequential circuit for cross-check tests."""
    spec = SyntheticSpec(
        name="mini",
        num_inputs=4,
        num_outputs=3,
        num_flops=4,
        num_gates=28,
        seed=424242,
    )
    return generate_circuit(spec)


@pytest.fixture(scope="session")
def medium_synthetic() -> Circuit:
    """A mid-size synthetic circuit for integration tests."""
    spec = SyntheticSpec(
        name="midi",
        num_inputs=5,
        num_outputs=4,
        num_flops=6,
        num_gates=60,
        seed=31337,
    )
    return generate_circuit(spec)
