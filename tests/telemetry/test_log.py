"""Tests for the shared logging helper."""

import logging

from repro.telemetry import log as telemetry_log
from repro.telemetry.log import LOG_LEVEL_ENV, get_logger, resolve_level


class TestResolveLevel:
    def test_explicit_name_wins(self):
        assert resolve_level("debug") == logging.DEBUG
        assert resolve_level("ERROR") == logging.ERROR

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "info")
        assert resolve_level() == logging.INFO

    def test_unknown_name_falls_back_to_warning(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "chatty")
        assert resolve_level() == logging.WARNING
        assert resolve_level("nonsense") == logging.WARNING

    def test_default_is_warning(self, monkeypatch):
        monkeypatch.delenv(LOG_LEVEL_ENV, raising=False)
        assert resolve_level() == logging.WARNING


class TestGetLogger:
    def test_reparents_under_repro(self):
        assert get_logger("repro.sim").name == "repro.sim"
        assert get_logger("myapp.module").name == "repro.myapp.module"
        assert get_logger().name == "repro"

    def test_root_configured_once(self):
        get_logger("repro.a")
        root = logging.getLogger("repro")
        handlers_before = list(root.handlers)
        get_logger("repro.b")
        assert list(root.handlers) == handlers_before

    def test_env_level_applied(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "debug")
        monkeypatch.setattr(telemetry_log, "_configured", False)
        root = telemetry_log.configure(force=True)
        assert root.level == logging.DEBUG
        # Restore the default for other tests.
        monkeypatch.delenv(LOG_LEVEL_ENV)
        telemetry_log.configure(force=True)

    def test_library_modules_use_the_tree(self):
        # Instrumented modules hand out loggers under repro.*.
        from repro.probes import flightrec
        from repro.runner import cache

        assert cache._log.name.startswith("repro.")
        assert flightrec._log.name.startswith("repro.")
