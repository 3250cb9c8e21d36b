"""The speed sampler's arithmetic, its sampling and its handler restoration."""

import signal
import time

from perfbench.speed import REFERENCE_S, Sampler


def test_normalise_scales_own_time_by_mean_speed():
    sampler = Sampler()
    sampler.samples = [REFERENCE_S / 2, REFERENCE_S / 2]  # host twice as fast
    own = 1.0 - REFERENCE_S
    assert abs(sampler.normalise(1.0) - 2.0 * own) < 1e-12
    sampler.samples = [REFERENCE_S, REFERENCE_S * 2]  # speeds 1 and 1/2
    assert abs(sampler.normalise(1.0) - 0.75 * (1.0 - 3 * REFERENCE_S)) < 1e-12


def test_sampler_samples_while_busy_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Sampler(interval=0.01) as sampler:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert all(s > 0 for s in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
