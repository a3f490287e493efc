"""The throughput at reference speed does not move when the machine
slows down, and does move when the operations themselves get slower."""
import pytest

import reference as R


class ScriptedReference:
    """Reference times taken from a list, in order."""

    def __init__(self, times):
        self.times = list(times)

    def seconds(self):
        return self.times.pop(0)


def rate(op_seconds, ref_times):
    meter = R.SpeedMeter(ScriptedReference(ref_times))
    for t in op_seconds:
        meter.add(t, 100)
    meter.close()
    return meter


def test_a_slower_machine_leaves_the_normalised_rate_unchanged():
    steady = rate([0.3, 0.3, 0.3], [R.REFERENCE_S] * 4)
    slow = rate([0.6, 0.6, 0.6], [2 * R.REFERENCE_S] * 4)
    assert steady.rate() == pytest.approx(300 / 0.9)
    assert slow.rate() == pytest.approx(steady.rate())
    assert slow.speed() == pytest.approx(0.5)


def test_a_slower_program_lowers_the_normalised_rate():
    steady = rate([0.3, 0.3, 0.3], [R.REFERENCE_S] * 4)
    slower = rate([0.45, 0.45, 0.45], [R.REFERENCE_S] * 4)
    assert slower.rate() == pytest.approx(steady.rate() / 1.5)


def test_each_slice_uses_the_reference_times_around_it():
    # two slices: the first at full speed, the second at half speed
    meter = rate([0.1, 0.2, 0.5], [R.REFERENCE_S, R.REFERENCE_S, 2 * R.REFERENCE_S])
    assert [s[:2] for s in meter.slices] == [(pytest.approx(0.3), 200), (0.5, 100)]
    normalised = 0.3 + 0.5 / 1.5
    assert meter.normalised_seconds() == pytest.approx(normalised)
    assert meter.rate() == pytest.approx(300 / normalised)


def test_close_without_operations_takes_no_reference_time():
    meter = rate([], [R.REFERENCE_S])
    assert meter.slices == []
    assert meter.rate() == 0.0
