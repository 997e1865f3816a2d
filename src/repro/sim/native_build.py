"""Lazy compilation and loading of the native C simulation kernel.

The ``native`` backend (:mod:`repro.sim.backend_native`) is backed by a
small dependency-free C file shipped inside the package
(``sim/_native/repro_kernel.c``).  Nothing is built at install time:
the first process that asks for the backend compiles the kernel with
whatever C compiler the machine has (``$CC``, then ``cc``/``gcc``/
``clang``) into a content-addressed cache directory, and every later
process just ``dlopen``\\ s the cached shared object.

Unavailability is a *condition*, not an error: no compiler, a failed
build, or the ``REPRO_NO_NATIVE`` escape hatch all surface as
:func:`native_unavailable_reason` returning a string, which the backend
registry translates into "``auto`` never picks native" and
"``backend='native'`` raises a clear configuration error".  The full
test suite passes with ``REPRO_NO_NATIVE=1``.

Cache layout: ``$REPRO_NATIVE_CACHE_DIR`` (default
``~/.cache/repro-bist/native``) holds one shared object per source
digest, so editing the C file or bumping the ABI rebuilds without
clobbering concurrent users; builds land in a temp file and are
published with an atomic :func:`os.replace`, so concurrent first calls
(e.g. several processes starting at once) race benignly.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

from repro.errors import SimulationError

#: Env knob hiding the compiled kernel entirely (tests, bisection, and
#: machines where a half-working toolchain is worse than none).
NO_NATIVE_ENV = "REPRO_NO_NATIVE"

#: Override for the shared-object cache directory.
CACHE_DIR_ENV = "REPRO_NATIVE_CACHE_DIR"

#: Python-side ABI expectation; must equal REPRO_NATIVE_ABI in the C
#: source (checked after every load, so a stale .so cannot be driven
#: with the wrong marshaling).  v2 added repro_scan; v3 added an
#: in-kernel thread pool and a trailing lane-count argument on
#: repro_eval/repro_detect_step/repro_scan; v4 added repro_trace; v5
#: added repro_scan's per-slot flop-divergence outputs; v6 put
#: repro_scan's program-fixed arguments first, replaced its packed
#: per-slot stimulus with derived candidates and added the first-hit
#: mode; v7 dropped the thread pool and the lane-count arguments (chunk
#: threads run independent calls instead, see repro.sim.workerpool); v8
#: made repro_scan divergence-driven (the fault axis runs its own good
#: machine; paired faulty machines evaluate only the ops that differ
#: from theirs) and reports the ops it evaluated.
NATIVE_ABI_VERSION = 8

#: Compilers tried in order when $CC is unset.
_COMPILER_CANDIDATES = ("cc", "gcc", "clang")

_SOURCE_PATH = Path(__file__).parent / "_native" / "repro_kernel.c"

# Process-level memos: the loaded library, and a sticky failure reason so
# a broken toolchain is probed once per process, not per call.
_LIBRARY: ctypes.CDLL | None = None
_BUILD_FAILURE: str | None = None


def find_compiler() -> str | None:
    """The C compiler the build will use, or ``None`` when there is none."""
    override = os.environ.get("CC")
    if override:
        return override if shutil.which(override) else None
    for candidate in _COMPILER_CANDIDATES:
        if shutil.which(candidate):
            return candidate
    return None


def toolchain_info() -> dict:
    """Compiler name/version for benchmark ``machine`` blocks."""
    compiler = find_compiler()
    if compiler is None:
        return {"compiler": None}
    try:
        probe = subprocess.run(
            [compiler, "--version"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        version = (probe.stdout or probe.stderr).splitlines()[0].strip()
    except (OSError, subprocess.TimeoutExpired, IndexError):
        version = "unknown"
    return {"compiler": compiler, "compiler_version": version}


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-bist" / "native"


def _library_path(source: bytes) -> Path:
    extra = os.environ.get("REPRO_NATIVE_CFLAGS", "")
    digest = hashlib.sha256(
        source + f"|abi={NATIVE_ABI_VERSION}|cflags={extra}".encode()
    ).hexdigest()[:16]
    return _cache_dir() / f"repro_kernel-{digest}.so"


def _compile(compiler: str, source_path: Path, target: Path) -> None:
    """Compile the kernel to ``target`` (atomic publish via temp file)."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(
        suffix=".so", prefix="repro_kernel-", dir=target.parent
    )
    os.close(fd)
    command = [
        compiler,
        "-O3",
        "-std=c11",
        "-fPIC",
        "-shared",
    ]
    extra = os.environ.get("REPRO_NATIVE_CFLAGS")
    if extra:
        # Escape hatch for instrumented builds (the CI sanitizer lanes
        # inject -fsanitize=... -g -O1 here); folded into the
        # cache key via the digest salt below.
        command.extend(extra.split())
    command.extend(["-o", temp_name, str(source_path)])
    try:
        build = subprocess.run(
            command, capture_output=True, text=True, timeout=120
        )
        if build.returncode != 0:
            detail = (build.stderr or build.stdout or "").strip()
            raise SimulationError(
                f"native kernel build failed ({' '.join(command)}): "
                f"{detail[:500]}"
            )
        os.replace(temp_name, target)
    except (OSError, subprocess.TimeoutExpired) as error:
        raise SimulationError(
            f"native kernel build failed to run {compiler!r}: {error}"
        ) from error
    finally:
        if os.path.exists(temp_name):  # failed before the atomic publish
            os.unlink(temp_name)


def _bind(library: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the exported signatures (pointers travel as raw addresses)."""
    p = ctypes.c_void_p
    i64 = ctypes.c_int64
    library.repro_abi_version.argtypes = []
    library.repro_abi_version.restype = i64
    # A serial stub (always 1), kept for callers that check no kernel
    # thread pool was started.
    library.repro_thread_pool_size.argtypes = []
    library.repro_thread_pool_size.restype = i64
    library.repro_eval.argtypes = [
        p, i64, p, p, p, p, i64, p, p, p, p, i64, p, p, p, i64, p, p
    ]
    library.repro_eval.restype = None
    library.repro_detect_mask.argtypes = [p, i64, p, p, i64, p, p, p, p]
    library.repro_detect_mask.restype = None
    library.repro_detect_step.argtypes = [p, p, i64, p, i64, p, p, p, p, p]
    library.repro_detect_step.restype = None
    # repro_scan: 60 arguments in the C signature's groups, "p" a
    # pointer and "i" a size/flag integer (ctypes releases the GIL for
    # the whole call, which is what lets chunk threads and concurrent
    # serving lanes scan in parallel).
    scan_groups = (
        "ppppiippppipppipppipippipppppipipp",  # program prefix
        "ppipppppp",  # batch
        "pppipiiii",  # stimulus
        "ppppppii",  # outputs and modes
    )
    library.repro_scan.argtypes = [
        p if kind == "p" else i64 for kind in "".join(scan_groups)
    ]
    library.repro_scan.restype = i64
    # repro_trace: 18 arguments (the fault-free trace, one serial call).
    trace_sig: list = [p] * 18
    for index in (5, 7, 10, 14, 16):
        trace_sig[index] = i64
    library.repro_trace.argtypes = trace_sig
    library.repro_trace.restype = None
    return library


def native_unavailable_reason() -> str | None:
    """Why the native backend cannot be used right now, or ``None``.

    The :data:`NO_NATIVE_ENV` knob is re-read on every call (tests flip
    it); compiler absence and build failures stick for the process.
    """
    if os.environ.get(NO_NATIVE_ENV):
        return f"disabled via {NO_NATIVE_ENV}"
    if _LIBRARY is not None:
        return None
    if _BUILD_FAILURE is not None:
        return _BUILD_FAILURE
    if not _SOURCE_PATH.is_file():
        return f"kernel source missing at {_SOURCE_PATH}"
    if find_compiler() is None:
        return "no C compiler found (set $CC, or install cc/gcc/clang)"
    return None


def load_native_library() -> ctypes.CDLL:
    """The compiled kernel, building it on first use.

    Raises :class:`~repro.errors.SimulationError` with the
    :func:`native_unavailable_reason` when the backend cannot be
    provided; the registry turns that into graceful ``auto`` avoidance.
    """
    global _LIBRARY, _BUILD_FAILURE
    reason = native_unavailable_reason()
    if reason is not None:
        raise SimulationError(f"the 'native' simulation backend is unavailable: {reason}")
    if _LIBRARY is not None:
        return _LIBRARY
    try:
        source = _SOURCE_PATH.read_bytes()
        target = _library_path(source)
        if not target.is_file():
            compiler = find_compiler()
            assert compiler is not None  # checked by the reason gate
            _compile(compiler, _SOURCE_PATH, target)
        library = _bind(ctypes.CDLL(str(target)))
        abi = library.repro_abi_version()
        if abi != NATIVE_ABI_VERSION:
            raise SimulationError(
                f"native kernel ABI mismatch: built {abi}, expected "
                f"{NATIVE_ABI_VERSION} (clear {target.parent} and retry)"
            )
    except SimulationError as error:
        _BUILD_FAILURE = str(error)
        raise
    except OSError as error:
        _BUILD_FAILURE = f"native kernel load failed: {error}"
        raise SimulationError(_BUILD_FAILURE) from error
    _LIBRARY = library
    return library
