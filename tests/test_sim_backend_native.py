"""The native backend's availability machinery and graceful fallback.

Bit-level parity of the C kernel is covered by the registry-parametrized
suites (`test_sim_backend_parity.py` and the shard/scanplan suites); this
module covers what happens *around* the kernel: the ``REPRO_NO_NATIVE``
escape hatch, ``auto`` silently avoiding an unavailable engine,
``backend="native"`` raising the documented configuration error, the CLI
surfacing a readable message, and the build/cache plumbing.
"""

from __future__ import annotations

import pytest

from repro.circuits.catalog import load_circuit
from repro.errors import SimulationError
from repro.sim.backend import (
    available_backends,
    backend_unavailable_reason,
    get_backend,
    resolve_backend_name,
)
from repro.sim.compiled import CompiledCircuit
from repro.sim import native_build
from repro.sim.native_build import (
    CACHE_DIR_ENV,
    NATIVE_ABI_VERSION,
    NO_NATIVE_ENV,
    find_compiler,
    load_native_library,
    native_unavailable_reason,
    toolchain_info,
)

pytest.importorskip("numpy")


@pytest.fixture
def no_native(monkeypatch):
    """Hide the compiled kernel, as a machine without a compiler would."""
    monkeypatch.setenv(NO_NATIVE_ENV, "1")


@pytest.fixture
def compiled() -> CompiledCircuit:
    # Fresh per test: get_backend memoizes instances on the compiled
    # circuit, which would mask availability transitions.
    return CompiledCircuit(load_circuit("syn298"))


class TestEnvKnob:
    def test_reason_names_the_knob(self, no_native):
        reason = native_unavailable_reason()
        assert reason is not None and NO_NATIVE_ENV in reason
        registry_reason = backend_unavailable_reason("native")
        assert registry_reason is not None and NO_NATIVE_ENV in registry_reason

    def test_hidden_from_available_backends(self, no_native):
        assert "native" not in available_backends()
        assert "python" in available_backends()

    def test_knob_is_reread_each_call(self, monkeypatch):
        monkeypatch.setenv(NO_NATIVE_ENV, "1")
        assert native_unavailable_reason() is not None
        monkeypatch.delenv(NO_NATIVE_ENV)
        # Without the knob the remaining answer depends on the machine's
        # toolchain; it must simply not be the knob-reason anymore.
        reason = native_unavailable_reason()
        assert reason is None or NO_NATIVE_ENV not in reason

    def test_auto_silently_avoids_native(self, no_native, compiled):
        # syn298 (119 gates) resolves to native when it is available ...
        assert resolve_backend_name(compiled, "auto") == "python"
        assert resolve_backend_name(compiled, "auto", paired=True) == "python"
        # ... and auto still produces a working simulator.
        from repro.sim.faultsim import FaultSimulator

        simulator = FaultSimulator(compiled, backend="auto")
        assert simulator.backend.name == "python"

    def test_explicit_native_raises_documented_error(self, no_native, compiled):
        with pytest.raises(SimulationError, match="'native'.*unavailable"):
            get_backend(compiled, "native")
        with pytest.raises(SimulationError, match=NO_NATIVE_ENV):
            load_native_library()

    def test_cli_surfaces_readable_message(self, no_native, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["atpg", "--circuit", "s27", "--backend", "native"])
        assert excinfo.value.code != 0
        message = capsys.readouterr().err
        assert "--backend native" in message
        assert "unavailable" in message
        assert NO_NATIVE_ENV in message


class TestBuildPlumbing:
    def test_toolchain_info_shape(self):
        info = toolchain_info()
        assert "compiler" in info
        if info["compiler"] is not None:
            assert info["compiler_version"]

    def test_missing_compiler_reported(self, monkeypatch):
        # The env knob outranks every other reason; clear it so this
        # test also passes under an ambient REPRO_NO_NATIVE=1 run.
        monkeypatch.delenv(NO_NATIVE_ENV, raising=False)
        monkeypatch.setattr(native_build, "find_compiler", lambda: None)
        monkeypatch.setattr(native_build, "_LIBRARY", None)
        reason = native_unavailable_reason()
        assert reason is not None and "compiler" in reason

    def test_cc_env_overrides_compiler_choice(self, monkeypatch):
        monkeypatch.setenv("CC", "definitely-not-a-compiler-xyz")
        assert find_compiler() is None

    def test_build_failure_is_sticky(self, monkeypatch):
        monkeypatch.delenv(NO_NATIVE_ENV, raising=False)
        monkeypatch.setattr(native_build, "_LIBRARY", None)
        monkeypatch.setattr(native_build, "_BUILD_FAILURE", "boom: simulated")
        assert native_unavailable_reason() == "boom: simulated"
        with pytest.raises(SimulationError, match="boom: simulated"):
            load_native_library()


class TestLoadedKernel:
    """Checks that require a working toolchain; skip otherwise."""

    @pytest.fixture(autouse=True)
    def _need_native(self, require_backend):
        require_backend("native")

    def test_abi_version_matches(self):
        library = load_native_library()
        assert library.repro_abi_version() == NATIVE_ABI_VERSION

    def test_library_is_memoized(self):
        assert load_native_library() is load_native_library()

    def test_backend_instance_shape(self, compiled):
        backend = get_backend(compiled, "native")
        assert backend.name == "native"
        assert backend.word_width == 64
        # Flat op arrays cover the whole program.
        assert len(backend.c_codes) == len(compiled.ops)
        assert int(backend.c_in_off[-1]) == sum(
            len(ins) for _, _, ins in compiled.ops
        )

    def test_native_program_patch_arrays(self, compiled):
        from repro.faults.universe import FaultUniverse

        backend = get_backend(compiled, "native")
        faults = tuple(FaultUniverse(compiled.circuit).faults())[:12]
        program = backend.program(faults)
        # Patch op positions arrive sorted, as the C cursor walk requires.
        pins = list(program.pin_ops)
        stems = list(program.stem_ops)
        assert pins == sorted(pins)
        assert stems == sorted(stems)
        # The fault-free program carries no patches.
        clean = backend.program(None)
        assert len(clean.pin_ops) == 0 and len(clean.stem_ops) == 0


class TestAbiGuard:
    """A stale cached kernel must be rebuilt or rejected, never driven.

    ``repro_scan`` changed the export surface (ABI 2): a ``.so`` built
    for an older ABI must not be loadable as the current one.  Two
    independent defenses are checked — the content-addressed cache path
    diverges on an ABI bump (so a stale object is simply never found),
    and a library whose baked-in version disagrees anyway (hand-copied
    cache, doctored build) is rejected with the documented error instead
    of being called with the wrong marshaling.
    """

    @pytest.fixture(autouse=True)
    def _need_native(self, require_backend):
        require_backend("native")

    def test_cache_path_diverges_on_abi_bump(self, monkeypatch):
        source = b"int kernel;"
        current = native_build._library_path(source)
        monkeypatch.setattr(
            native_build, "NATIVE_ABI_VERSION", NATIVE_ABI_VERSION + 1
        )
        assert native_build._library_path(source) != current

    def test_stale_abi_library_rejected(self, tmp_path, monkeypatch):
        source_text = native_build._SOURCE_PATH.read_text()
        marker = f"#define REPRO_NATIVE_ABI {NATIVE_ABI_VERSION}"
        assert marker in source_text, "ABI marker drifted from the C source"
        doctored = tmp_path / "repro_kernel_stale.c"
        doctored.write_text(
            source_text.replace(marker, "#define REPRO_NATIVE_ABI 0", 1)
        )
        # Plant the stale build exactly where the loader will look for
        # the *current* source in a private cache directory.
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        target = native_build._library_path(
            native_build._SOURCE_PATH.read_bytes()
        )
        native_build._compile(find_compiler(), doctored, target)
        monkeypatch.setattr(native_build, "_LIBRARY", None)
        monkeypatch.setattr(native_build, "_BUILD_FAILURE", None)
        with pytest.raises(SimulationError, match="ABI mismatch"):
            load_native_library()
        # The mismatch sticks as this process's unavailability reason.
        reason = native_unavailable_reason()
        assert reason is not None and "ABI mismatch" in reason
