"""Shared test helpers.

Acceptance tests record one line per criterion; the lines are replayed in
the terminal summary so they stay visible even when capture is on.
"""

ACCEPTANCE_LINES = []


def record_acceptance(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number}] {name}: {status}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
