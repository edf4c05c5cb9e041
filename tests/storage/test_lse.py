"""Unit tests for the latent sector error model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import StorageModelError
from repro.storage import LatentSectorErrorModel, LseParameters


class TestLatentSectorErrors:
    def test_rate_conversion(self):
        model = LatentSectorErrorModel(LseParameters(errors_per_disk_year=2.0))
        assert model.rate_per_hour() == pytest.approx(2.0 / 8760.0)
        assert model.expected_errors(8760.0) == pytest.approx(2.0)

    def test_scrubbing_caps_exposure(self):
        model = LatentSectorErrorModel(LseParameters(scrub_interval_hours=100.0))
        assert model.effective_exposure_hours(10_000.0) == pytest.approx(50.0)
        no_scrub = LatentSectorErrorModel(LseParameters(scrub_interval_hours=0.0))
        assert no_scrub.effective_exposure_hours(10_000.0) == pytest.approx(10_000.0)

    def test_probability_monotone_in_exposure(self):
        model = LatentSectorErrorModel(LseParameters(scrub_interval_hours=0.0))
        assert model.probability_of_lse(10.0) < model.probability_of_lse(1000.0)

    def test_rebuild_block_probability_monotone_in_disks(self):
        model = LatentSectorErrorModel()
        few = model.probability_rebuild_blocked(3, rebuild_hours=10.0)
        many = model.probability_rebuild_blocked(7, rebuild_hours=10.0)
        assert 0.0 <= few <= many <= 1.0

    def test_sample_error_count(self, rng):
        model = LatentSectorErrorModel(LseParameters(errors_per_disk_year=5.0, scrub_interval_hours=0.0))
        counts = [model.sample_error_count(8760.0, rng) for _ in range(2000)]
        assert np.mean(counts) == pytest.approx(5.0, rel=0.15)

    def test_validation(self):
        with pytest.raises(StorageModelError):
            LseParameters(errors_per_disk_year=-1.0)
        model = LatentSectorErrorModel()
        with pytest.raises(StorageModelError):
            model.expected_errors(-1.0)
        with pytest.raises(StorageModelError):
            model.probability_rebuild_blocked(0, 10.0)
