import pytest
import refclock

from sste import experiment


def test_scale_divides_by_the_mean_of_the_bracketing_unit_times():
    ref = refclock.REFERENCE_S
    assert refclock.scale(3.0, ref, ref) == pytest.approx(3.0)
    assert refclock.scale(3.0, 2 * ref, 4 * ref) == pytest.approx(1.0)


def test_a_clocked_run_cuts_segments_and_restores_the_hooks(tiny_config):
    before = refclock.bound_objects()
    with refclock.RefClock(every_s=0.0) as clock:
        assert experiment.run_one(tiny_config).status == "ok"
    after = refclock.bound_objects()
    assert len(before) == len(after) and all(a is b for a, b in zip(before, after))
    assert clock.wall_s > 0 and clock.ref_s > 0
