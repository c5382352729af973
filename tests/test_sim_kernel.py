"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import PeriodicTask, SimulationError, Simulator


def test_initial_time_is_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_until_fires_callback_at_right_time():
    sim = Simulator()
    fired = []
    sim.schedule(1.5, lambda: fired.append(sim.now))
    sim.run_until(2.0)
    assert fired == [1.5]
    assert sim.now == 2.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run_until(5.0)
    assert order == ["a", "b", "c"]


def test_ties_broken_by_insertion_order():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append(1))
    sim.schedule(1.0, lambda: order.append(2))
    sim.schedule(1.0, lambda: order.append(3))
    sim.run_until(1.0)
    assert order == [1, 2, 3]


def test_priority_orders_simultaneous_events():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("low"), priority=5)
    sim.schedule(1.0, lambda: order.append("high"), priority=0)
    sim.run_until(1.0)
    assert order == ["high", "low"]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


def test_schedule_at_in_the_past_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(3.0)
    with pytest.raises(SimulationError):
        sim.run_until(2.0)


def test_timer_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    timer = sim.schedule(1.0, lambda: fired.append(1))
    timer.cancel()
    sim.run_until(2.0)
    assert fired == []
    assert timer.cancelled


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.schedule(0.5, lambda: fired.append(("inner", sim.now)))

    sim.schedule(1.0, outer)
    sim.run_until(2.0)
    assert fired == [("outer", 1.0), ("inner", 1.5)]


def test_run_until_does_not_execute_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(1))
    sim.run_until(4.0)
    assert fired == []
    sim.run_until(6.0)
    assert fired == [1]


def test_clock_advances_to_end_time_without_events():
    sim = Simulator()
    sim.run_until(10.0)
    assert sim.now == 10.0


def test_periodic_task_fires_every_period():
    sim = Simulator()
    times = []
    sim.periodic(1.0, lambda: times.append(sim.now))
    sim.run_until(5.0)
    assert times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_periodic_task_stop_halts_execution():
    sim = Simulator()
    times = []
    task = sim.periodic(1.0, lambda: times.append(sim.now))
    sim.run_until(2.0)
    task.stop()
    sim.run_until(5.0)
    assert times == [0.0, 1.0, 2.0]


def test_periodic_task_stopped_in_its_own_callback_leaves_nothing_pending():
    sim = Simulator()
    times = []

    def tick():
        times.append(sim.now)
        if len(times) == 3:
            task.stop()

    task = sim.periodic(1.0, tick)
    sim.run_until(10.0)
    assert times == [0.0, 1.0, 2.0]
    assert sim.pending_events() == 0
    task.stop()  # stopping twice is a no-op
    assert sim.pending_events() == 0
    assert not task.running


def test_periodic_task_stopped_between_fires_cancels_its_rearm():
    sim = Simulator()
    task = sim.periodic(1.0, lambda: None)
    sim.run_until(2.5)
    assert sim.pending_events() == 1
    task.stop()
    task.stop()
    assert sim.pending_events() == 0
    assert sim.peek() is None


def test_periodic_task_tracks_max_interval_with_jitter():
    sim = Simulator()
    jitters = iter([0.0, 0.3, 0.0, 0.0, 0.0, 0.0])
    task = PeriodicTask(sim, 1.0, lambda: None, jitter_fn=lambda: next(jitters, 0.0))
    task.start()
    sim.run_until(5.0)
    assert task.max_observed_interval == pytest.approx(1.3)


def test_periodic_rejects_nonpositive_period():
    sim = Simulator()
    with pytest.raises(SimulationError):
        PeriodicTask(sim, 0.0, lambda: None)


def test_stop_interrupts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, sim.stop)
    sim.schedule(2.0, lambda: fired.append(1))
    sim.run_until(10.0)
    assert fired == []
    assert sim.now == 1.0


def test_pending_events_counts_only_active():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    timer.cancel()
    assert sim.pending_events() == 1


def test_run_drains_queue():
    sim = Simulator()
    fired = []
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda d=delay: fired.append(d))
    sim.run()
    assert fired == [1.0, 2.0, 3.0]
    assert sim.peek() is None


def test_timer_fired_tracks_execution():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    assert not timer.fired
    sim.run_until(0.5)
    assert not timer.fired
    sim.run_until(1.0)
    assert timer.fired


def test_timer_cancelled_after_firing_still_reports_fired():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    sim.run_until(2.0)
    assert timer.fired
    timer.cancel()  # no-op on an already-fired timer
    assert timer.fired
    assert not timer.cancelled


def test_timer_scheduled_now_not_fired_until_callback_ran():
    sim = Simulator()
    observed = []

    def first():
        # `late` is scheduled at the same instant but has not run yet.
        observed.append(late.fired)

    sim.schedule(1.0, first, priority=0)
    late = sim.schedule(1.0, lambda: None, priority=1)
    sim.run_until(1.0)
    assert observed == [False]
    assert late.fired


def test_pending_events_live_counter():
    sim = Simulator()
    timers = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sim.pending_events() == 10
    timers[0].cancel()
    timers[5].cancel()
    assert sim.pending_events() == 8
    timers[5].cancel()  # double-cancel must not double-decrement
    assert sim.pending_events() == 8
    sim.run_until(3.0)  # executes timers 2 and 3 (timer 1 was cancelled)
    assert sim.pending_events() == 6
    sim.run()
    assert sim.pending_events() == 0


def test_cancelled_event_compaction_preserves_schedule():
    sim = Simulator()
    fired = []
    keep = []
    for i in range(200):
        timer = sim.schedule(1.0 + i * 0.01, lambda i=i: fired.append(i))
        if i % 2:
            keep.append(i)
        else:
            timer.cancel()  # enough cancellations to trigger compaction
    assert sim.pending_events() == len(keep)
    sim.run_until(10.0)
    assert fired == keep


def test_schedule_fast_interleaves_with_schedule_in_insertion_order():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule_fast(1.0, lambda: order.append("b"))
    sim.schedule_at_fast(1.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("d"))
    sim.schedule_fast(0.5, lambda: order.append("early"), priority=5)
    sim.run_until(1.0)
    assert order == ["early", "a", "b", "c", "d"]
    assert sim.events_processed == 5
    assert sim.pending_events() == 0


def test_peek_skips_cancelled_events():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    first.cancel()
    assert sim.peek() == 2.0
