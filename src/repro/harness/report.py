"""EXPERIMENTS.md generation: paper-vs-measured for every table/figure.

``write_experiments_report`` runs (or reuses) a suite result and renders
the complete markdown report the repository ships as EXPERIMENTS.md.
Regenerate with::

    python -m repro report --suite quick
"""

from __future__ import annotations

from repro.harness.figures import render_figure1
from repro.harness.paper_data import (
    PAPER_AVERAGE_MAX_RATIO,
    PAPER_AVERAGE_TOTAL_RATIO,
)
from repro.harness.runner import SuiteResult
from repro.harness.tables import render_table3, render_table4, render_table5


def build_experiments_markdown(suite: SuiteResult) -> str:
    """Render the full EXPERIMENTS.md content for one suite run."""
    records = suite.records
    total_ratios = [r.best_run.result.total_ratio for r in records]
    max_ratios = [r.best_run.result.max_ratio for r in records]
    average_total = sum(total_ratios) / len(total_ratios) if total_ratios else 0.0
    average_max = sum(max_ratios) / len(max_ratios) if max_ratios else 0.0

    lines: list[str] = []
    lines.append("# EXPERIMENTS — paper vs measured")
    lines.append("")
    lines.append(
        "Reproduction of every table and figure in Pomeranz & Reddy, DAC 1999. "
        f"Suite: `{suite.suite_name}` (set `REPRO_SUITE` and re-run "
        "`python -m repro report` or the benchmarks to regenerate)."
    )
    lines.append("")
    lines.append("## Reading guide")
    lines.append("")
    lines.append(
        "- `s27` is the real ISCAS-89 netlist driven by the paper's own T0 "
        "(Table 2); every s27 number is expected to match the paper exactly "
        "and does (see `tests/test_paper_s27.py`)."
    )
    lines.append(
        "- `synNNN` circuits are synthetic stand-ins with ISCAS-matched "
        "size profiles, driven by our ATPG's T0 (DESIGN.md §3). For them the "
        "comparison is *shape*: ratios < 1, small max-length, compaction "
        "dropping sequences, coverage always preserved. Absolute fault "
        "counts and lengths differ by construction."
    )
    lines.append(
        "- Rows starting with `paper:` are the published values for the "
        "ISCAS circuit the synthetic stand-in mirrors."
    )
    lines.append("")

    lines.append("## Table 3 — selection results before/after compaction")
    lines.append("")
    lines.append("```")
    lines.append(render_table3(records))
    lines.append("```")
    lines.append("")
    lines.append(
        "Shape checks: static compaction never increases |S|, total length "
        "or max length; coverage of the T0-detected fault set is preserved "
        "on every row (asserted programmatically in `bench_table3.py`)."
    )
    lines.append("")

    lines.append("## Table 4 — normalized run times")
    lines.append("")
    lines.append("```")
    lines.append(render_table4(records))
    lines.append("```")
    lines.append("")
    lines.append(
        "Times are normalized by the time to fault-simulate T0, exactly as "
        "in the paper, which cancels the pure-Python constant factor. As in "
        "the paper, Procedure 1 costs one to three orders of magnitude more "
        "than a single T0 simulation; our values differ because our batched "
        "window search changes the constant (fewer, wider simulations). "
        "The `comp.` column times set arithmetic only: Procedure 1 records "
        "each sequence's detection row while it simulates the expansion, "
        "so the simulations behind compaction are counted in `Proc.1`, and "
        "`comp.` cannot be compared with the paper's 16–147."
    )
    lines.append("")

    lines.append("## Table 5 — comparison with T0")
    lines.append("")
    lines.append("```")
    lines.append(render_table5(records))
    lines.append("```")
    lines.append("")
    lines.append(
        f"Measured averages: total ratio {average_total:.2f} (paper "
        f"{PAPER_AVERAGE_TOTAL_RATIO:.2f}), max ratio {average_max:.2f} "
        f"(paper {PAPER_AVERAGE_MAX_RATIO:.2f}). The headline claims hold: "
        "the scheme loads a fraction of T0 and stores a small fraction at "
        "any time, at identical fault coverage; applied at-speed length is "
        "8·n·(total loaded)."
    )
    lines.append("")

    lines.append("## Figure 1 — subsequences on the T0 timeline")
    lines.append("")
    for record in records:
        lines.append("```")
        lines.append(render_figure1(record.best_run))
        lines.append("```")
        lines.append("")

    lines.append("## Per-circuit notes")
    lines.append("")
    for record in records:
        result = record.best_run.result
        experiment = record.experiment
        source = (
            "paper Table 2 T0"
            if experiment.t0_source == "paper"
            else "ATPG-generated T0"
        )
        lines.append(
            f"- **{record.circuit_name}** ({source}, len {result.t0_length}): "
            f"{result.detected_by_t0}/{result.total_faults} faults detected by T0; "
            f"best n={result.repetitions}; |S| {result.num_sequences_before}"
            f"→{result.num_sequences_after}; total {result.total_length_before}"
            f"→{result.total_length_after}; max {result.max_length_after}; "
            f"coverage preserved: {result.coverage_preserved}."
        )
    lines.append("")
    return "\n".join(lines)


def write_experiments_report(suite: SuiteResult, path: str) -> None:
    """Write the report for ``suite`` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(build_experiments_markdown(suite))
