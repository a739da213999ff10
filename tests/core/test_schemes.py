"""Scheme policies."""

import pytest

from repro.core.schemes import CachingScheme, SchemePolicy


class TestPolicies:
    def test_no_cache_does_nothing(self):
        policy = CachingScheme.NO_CACHE.policy
        assert not policy.caches
        assert not policy.handles_containment

    def test_passive_caches_but_is_not_active(self):
        policy = CachingScheme.PASSIVE.policy
        assert policy.caches
        assert not policy.handles_containment

    def test_full_semantic_handles_everything(self):
        policy = CachingScheme.FULL_SEMANTIC.policy
        assert policy.handles_containment
        assert policy.handles_region_containment
        assert policy.handles_overlap

    def test_second_scheme_stops_at_region_containment(self):
        policy = CachingScheme.REGION_CONTAINMENT.policy
        assert policy.handles_region_containment
        assert not policy.handles_overlap

    def test_third_scheme_is_containment_only(self):
        policy = CachingScheme.CONTAINMENT_ONLY.policy
        assert policy.handles_containment
        assert not policy.handles_region_containment
        assert not policy.handles_overlap

    def test_policy_ordering_is_monotone(self):
        # Each active scheme handles a superset of the next one's cases.
        full = CachingScheme.FULL_SEMANTIC.policy
        second = CachingScheme.REGION_CONTAINMENT.policy
        third = CachingScheme.CONTAINMENT_ONLY.policy
        for weaker, stronger in ((third, second), (second, full)):
            assert stronger.handles_containment >= (
                weaker.handles_containment
            )
            assert stronger.handles_region_containment >= (
                weaker.handles_region_containment
            )
            assert stronger.handles_overlap >= weaker.handles_overlap


class TestPolicyValidation:
    def test_overlap_without_region_containment_is_invalid(self):
        with pytest.raises(ValueError):
            SchemePolicy(
                caches=True,
                handles_containment=True,
                handles_region_containment=False,
                handles_overlap=True,
            )

    def test_active_without_caching_is_invalid(self):
        with pytest.raises(ValueError):
            SchemePolicy(
                caches=False,
                handles_containment=True,
                handles_region_containment=False,
                handles_overlap=False,
            )
