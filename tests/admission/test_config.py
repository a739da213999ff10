"""AdmissionConfig / TenantQuota validation and derived values."""

import pytest

from repro.admission import RETRY_AFTER_SECONDS, AdmissionConfig, TenantQuota


class TestTenantQuota:
    def test_defaults(self):
        quota = TenantQuota()
        assert quota.rate_per_s == 10.0
        assert quota.burst == 20.0

    @pytest.mark.parametrize(
        "kwargs",
        [{"rate_per_s": 0.0}, {"rate_per_s": -1.0}, {"burst": 0.5}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TenantQuota(**kwargs)


class TestAdmissionConfig:
    def test_defaults_are_valid(self):
        config = AdmissionConfig()
        assert config.capacity == config.max_inflight + config.max_queue_depth
        # The overload cooldown, 2 s, in the whole seconds HTTP wants.
        assert RETRY_AFTER_SECONDS == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_inflight": 0},
            {"max_queue_depth": 0},
            {"max_inflight": -1},
            {"max_queue_depth": -1},
            {"overload_threshold": -1},
            {"max_inflight": 0, "max_queue_depth": 0},
            {"max_queue_depth": 0, "overload_threshold": 0},
            {"overload_threshold": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionConfig(**kwargs)
