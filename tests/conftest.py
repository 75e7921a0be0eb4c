import sys


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
