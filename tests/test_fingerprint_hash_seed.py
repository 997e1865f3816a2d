"""Run fingerprints do not depend on the interpreter's hash seed.

Faults, detection rows and program caches are keyed by hashed objects,
and string hashing is salted per process by ``PYTHONHASHSEED``.  Every
order that reaches a result must come from a deterministic key instead
(the restoration compactor, for one, sorts faults by ``str(f)``).  Each
request below runs in two fresh interpreters with different hash seeds,
and the two :meth:`RunResult.fingerprint` values must match.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Builds each request, runs it on a fresh Session and prints
#: ``{label: fingerprint}`` as JSON.  ATPG runs in full (the paper's s27
#: ``T0`` is not used), so restoration compaction is part of both runs.
SCRIPT = """
import json
from repro import RunRequest, Session
from repro.atpg.config import AtpgConfig
from repro.core.config import SelectionConfig

requests = {
    "s27-python": RunRequest(
        kind="scheme",
        circuit="s27",
        selection=SelectionConfig.for_backend("python"),
        atpg=AtpgConfig(backend="python"),
        use_paper_t0=False,
    ),
    "syn298-auto": RunRequest(
        kind="scheme",
        circuit="syn298",
        selection=SelectionConfig.for_backend("auto"),
        atpg=AtpgConfig(backend="auto", genetic_targets=2),
    ),
}
with Session() as session:
    print(json.dumps(
        {label: session.run(request).fingerprint()
         for label, request in requests.items()}
    ))
"""


def _fingerprints(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_scheme_fingerprints_ignore_the_hash_seed():
    first = _fingerprints("0")
    second = _fingerprints("12345")
    assert set(first) == {"s27-python", "syn298-auto"}
    assert first == second
