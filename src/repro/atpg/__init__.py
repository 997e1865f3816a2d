"""Sequential ATPG substrate (substitute for STRATEGATE [11] + [12]).

The paper consumes a deterministic test sequence ``T0`` produced by the
STRATEGATE test generator and compacted by vector-restoration static
compaction.  Neither tool is available, so this package provides a
from-scratch substitute with the same contract: given a circuit, produce a
reasonably short sequence ``T0`` with good stuck-at coverage, plus a
static compactor that shortens it without losing coverage.

Phases of :func:`generate_t0`:

1. **random phase** — candidate batches of random vectors, keeping
   extensions that detect new faults;
2. **greedy phase** — several candidate extensions per step, keeping the
   best (a light-weight stand-in for STRATEGATE's GA over vectors);
3. **genetic phase** — a per-fault genetic algorithm over whole sequences
   for the remaining hard faults, with a state-divergence fitness in the
   spirit of STRATEGATE's dynamic state traversal;
4. **static compaction** — vector restoration (the role of [12]): the
   kept vectors grow one window per hardest uncovered fault, each window
   found by a first-hit scan on the shared candidate-scan executor
   (:mod:`repro.atpg.restoration`).
"""

from repro.atpg.config import AtpgConfig
from repro.atpg.engine import AtpgResult, generate_t0

__all__ = [
    "AtpgConfig",
    "AtpgResult",
    "generate_t0",
]
