"""Opt-in pytest plugin: the ``raise`` statements of ``svddf`` that the run never executed.

Load it by name, with ``tests`` on the import path (pytest's own
``pythonpath`` setting adds ``src``):

    PYTHONPATH=tests python -m pytest -q -p raise_reach

It line-traces the package's frames with ``sys.settrace`` (``coverage`` is
not a dependency), so the run is slower and its timing checks may fail.
The terminal summary lists every unreached ``raise`` as path:line.
"""

import ast
import os
import sys
from pathlib import Path


def raise_lines(source: str) -> set[int]:
    """First line of every ``raise`` statement in ``source``."""
    return {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)}


class RaiseReach:
    def __init__(self, package_dir: Path):
        self.targets = {str(path): raise_lines(path.read_text()) for path in sorted(package_dir.glob("*.py"))}
        self.reached = {path: set() for path in self.targets}

    def _global(self, frame, event, arg):
        lines = self.targets.get(frame.f_code.co_filename)
        if not lines:
            return None
        reached = self.reached[frame.f_code.co_filename]

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                reached.add(frame.f_lineno)
            return local

        return local

    def unreached(self):
        return [(path, line) for path, lines in self.targets.items() for line in sorted(lines - self.reached[path])]

    def pytest_sessionstart(self, session):
        sys.settrace(self._global)

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)

    def pytest_terminal_summary(self, terminalreporter):
        total = sum(len(lines) for lines in self.targets.values())
        missed = self.unreached()
        terminalreporter.section("raise reach")
        terminalreporter.write_line(f"{total - len(missed)} of {total} raise statements in svddf executed")
        for path, line in missed:
            text = Path(path).read_text().splitlines()[line - 1].strip()
            terminalreporter.write_line(f"not reached: {os.path.relpath(path)}:{line}: {text}")


def pytest_configure(config):
    import svddf

    config.pluginmanager.register(RaiseReach(Path(svddf.__file__).parent), "raise_reach_tracer")
