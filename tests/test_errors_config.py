"""Tests for the exception hierarchy and the configuration records."""

from __future__ import annotations

import pytest

from repro.atpg.config import AtpgConfig
from repro.core.config import SelectionConfig
from repro.core.ops import ExpansionConfig
from repro.core.request import RunRequest
from repro.errors import (
    AtpgError,
    BenchFormatError,
    CatalogError,
    FaultModelError,
    HardwareModelError,
    NetlistError,
    ReproError,
    SelectionError,
    SimulationError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            NetlistError,
            BenchFormatError,
            SimulationError,
            FaultModelError,
            SelectionError,
            AtpgError,
            HardwareModelError,
            CatalogError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_bench_error_is_netlist_error(self):
        assert issubclass(BenchFormatError, NetlistError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise SimulationError("boom")


class TestSelectionConfig:
    def test_defaults(self):
        config = SelectionConfig()
        assert config.expansion.repetitions == 2
        assert not config.skip_omission

    def test_with_repetitions_preserves_other_fields(self):
        base = SelectionConfig(
            expansion=ExpansionConfig(repetitions=2, use_shift=False),
            seed=42,
            search_batch_width=8,
        )
        derived = base.with_repetitions(16)
        assert derived.expansion.repetitions == 16
        assert derived.expansion.use_shift is False
        assert derived.seed == 42
        assert derived.search_batch_width == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(search_batch_width=0),
            dict(omission_batch_width=0),
            dict(fault_batch_width=0),
        ],
    )
    def test_batch_width_validation(self, kwargs):
        with pytest.raises(ValueError):
            SelectionConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(Exception):
            SelectionConfig().seed = 1

    @pytest.mark.parametrize("backend", ["numpy", "nope"])
    def test_unregistered_backend_rejected(self, backend):
        with pytest.raises(ValueError, match="backend must be one of"):
            SelectionConfig(backend=backend)
        with pytest.raises(ValueError, match="backend must be one of"):
            AtpgConfig(backend=backend)
        for field in ("selection", "atpg"):
            with pytest.raises(ValueError, match="backend must be one of"):
                RunRequest.from_json(
                    {"kind": "scheme", "circuit": "s27", field: {"backend": backend}}
                )

    def test_for_backend_batch_widths(self):
        """(search, omission, fault) widths each selector resolves to."""

        def widths(backend):
            config = SelectionConfig.for_backend(backend)
            return (
                config.search_batch_width,
                config.omission_batch_width,
                config.fault_batch_width,
            )

        assert widths("python") == (32, 96, 192)
        assert widths("native") == (32, 96, 192)
        assert widths("auto") == (128, 256, 1024)  # numpy ships in CI


class TestExpansionConfig:
    def test_length_multiplier_full(self):
        assert ExpansionConfig(repetitions=2).length_multiplier == 16
        assert ExpansionConfig(repetitions=16).length_multiplier == 128

    def test_length_multiplier_partial(self):
        config = ExpansionConfig(repetitions=3, use_reverse=False)
        assert config.length_multiplier == 12

    def test_repetitions_validated(self):
        with pytest.raises(ValueError):
            ExpansionConfig(repetitions=0)
