import gc

import pytest

from hostspeed import REFERENCE_S, WINDOW_S, HostSpeed


def _host(samples):
    host = HostSpeed.__new__(HostSpeed)  # no warm-up: the samples are given
    host.at = [at for at, _s in samples]
    host.seconds = [s for _at, s in samples]
    return host


def test_scale_is_the_identity_at_reference_speed():
    host = _host([(0.0, REFERENCE_S), (1.0, REFERENCE_S)])
    assert host.scale(0.2, 0.7) == pytest.approx(0.5)


def test_a_uniformly_slower_host_scales_out():
    # the job and the kernel samples around it all take 40% longer
    host = _host([(0.0, REFERENCE_S * 1.4), (0.8, REFERENCE_S * 1.4)])
    assert host.scale(0.1, 0.1 + 0.5 * 1.4) == pytest.approx(0.5)


def test_one_interrupted_sample_does_not_move_a_job():
    host = _host([(0.0, REFERENCE_S), (0.1, 9 * REFERENCE_S), (0.2, REFERENCE_S), (0.3, REFERENCE_S)])
    assert host.scale(0.12, 0.18) == pytest.approx(0.06)


def test_only_samples_near_the_interval_count():
    far = 10 * WINDOW_S
    host = _host([(0.0, 5 * REFERENCE_S), (far, REFERENCE_S), (far + 0.1, REFERENCE_S)])
    assert host.kernel_seconds(far, far + 0.05) == REFERENCE_S
    # none near: the samples on either side
    assert host.kernel_seconds(3 * WINDOW_S, 3 * WINDOW_S) == pytest.approx(3 * REFERENCE_S)


def test_sampling_records_the_kernel_and_restores_the_collector():
    host = HostSpeed()
    host.sample(3)
    assert len(host.seconds) == 3 and min(host.seconds) > 0
    assert host.at == sorted(host.at)
    assert gc.isenabled()
