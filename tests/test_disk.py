"""Tests for the HDD service-time model."""

import pytest

from repro.disk import HDD, HDDParams
from repro.errors import ConfigError
from repro.units import MILLISECOND


def test_rotation_time_from_rpm():
    p = HDDParams(rpm=7200)
    assert p.rotation_time == pytest.approx(60.0 / 7200)
    assert p.avg_rotational_latency == pytest.approx(60.0 / 7200 / 2)


def test_params_validation():
    with pytest.raises(ConfigError):
        HDDParams(rpm=0)
    with pytest.raises(ConfigError):
        HDDParams(seek_min=5 * MILLISECOND, seek_avg=1 * MILLISECOND)


def test_sequential_access_skips_seek_and_rotation():
    d = HDD()
    t1 = d.service_time(1000, 8)  # seek from parked head
    t2 = d.service_time(1008, 8)  # head is already there
    assert t2 < t1
    assert t2 == pytest.approx(8 * 4096 / d.params.transfer_rate)


def test_random_access_pays_seek_plus_rotation():
    d = HDD()
    d.service_time(0, 1)
    far = d.capacity_pages // 2
    t = d.service_time(far, 1)
    assert t > d.params.avg_rotational_latency
    assert t > 5 * MILLISECOND


def test_longer_seeks_cost_more():
    d = HDD()
    d.service_time(0, 1)
    t_near = d.service_time(1000, 1)
    d2 = HDD()
    d2.service_time(0, 1)
    t_far = d2.service_time(d2.capacity_pages - 1, 1)
    assert t_far > t_near


def test_zero_length_rejected():
    with pytest.raises(ConfigError):
        HDD().service_time(0, 0)
