"""Tests for daemon-event semantics (background activity)."""


class TestDaemonEvents:
    def test_run_drains_when_only_daemons_remain(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            sim.schedule(100, tick, daemon=True)

        sim.schedule(100, tick, daemon=True)
        sim.schedule(250, lambda: fired.append("work"))
        sim.run(until=10_000)
        # Daemons fired while foreground work existed, then the run
        # drained instead of ticking to the horizon.
        assert fired == [100, 200, "work"]
        assert sim.now == 10_000  # clock advanced to the bound

    def test_pure_daemon_queue_never_runs(self, sim):
        fired = []
        sim.schedule(5, lambda: fired.append(1), daemon=True)
        sim.run(until=100)
        assert fired == []

    def test_foreground_keepalive_extends_daemons(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            sim.schedule(10, tick, daemon=True)

        sim.schedule(10, tick, daemon=True)
        sim.schedule(55, lambda: None)  # keep-alive
        sim.run()
        assert fired == [10, 20, 30, 40, 50]

    def test_daemon_scheduled_from_foreground(self, sim):
        fired = []

        def work():
            sim.schedule(1, lambda: fired.append("daemon"), daemon=True)
            fired.append("work")

        sim.schedule(5, work)
        sim.run()
        # The daemon was scheduled after the last foreground event, so
        # it never fires.
        assert fired == ["work"]

    def test_step_with_only_daemons_is_drained(self, sim):
        # Consistent with run(): daemons alone never constitute work,
        # so step() reports the simulation as drained instead of
        # dispatching refresh/OS ticks forever.
        fired = []
        sim.schedule(5, lambda: fired.append(1), daemon=True)
        assert sim.step() is None
        assert fired == []

    def test_step_runs_daemons_while_foreground_pending(self, sim):
        fired = []
        sim.schedule(5, lambda: fired.append("daemon"), daemon=True)
        sim.schedule(9, lambda: fired.append("work"))
        assert sim.step() == 5
        assert sim.step() == 9
        assert fired == ["daemon", "work"]
        assert sim.step() is None
