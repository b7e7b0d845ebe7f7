import threading

import pytest

# How long the session end waits for a key-derivation thread to finish.
JOIN_TIMEOUT_S = 10.0


def pytest_sessionfinish(session, exitstatus):
    """Fail the session if a ``ts3ra-pbkdf2`` thread is still alive at its end,
    after a bounded join: this catches an engine that leaks its thread where
    no single test looks."""
    leaked = []
    for thread in threading.enumerate():
        if thread.name == "ts3ra-pbkdf2":
            thread.join(JOIN_TIMEOUT_S)
            if thread.is_alive():
                leaked.append(thread)
    if leaked:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.write_sep(
                "=", f"{len(leaked)} ts3ra-pbkdf2 thread(s) alive at the end of the session", red=True
            )
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
