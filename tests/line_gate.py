"""Line gate: a pytest plugin that runs the suite under a line tracer and
fails the session when a line in a ``src/belpm`` function body never runs.

Run the whole suite with it (tier-1 does not load it):

    PYTHONPATH=src:tests python -m pytest -q -p line_gate

A function-body line is a line that starts bytecode in a function, method,
lambda or comprehension of the package; module and class bodies, which run
on import, are not gated. Every such line must run at least once. The
plugin also lists the line-to-line transitions (arcs) that the bytecode
allows and the suite never takes, as a report that does not fail the run:
each is a branch that either wants a test or is dead code. Arcs through
exception handlers are not listed, as the bytecode does not show where an
exception leaves its line.

It uses ``sys.settrace`` only, so it needs no package and runs on every
Python the project supports; the suite takes about twice as long under it.
"""

from __future__ import annotations

import dis
import inspect
import os
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "belpm"
_PREFIX = str(PACKAGE) + os.sep
# Jumps that never fall through, and instructions that leave the frame.
_GOTO = {"JUMP_FORWARD", "JUMP_BACKWARD", "JUMP_ABSOLUTE", "JUMP_BACKWARD_NO_INTERRUPT"}
_EXIT = {"RETURN_VALUE", "RETURN_CONST", "RAISE_VARARGS", "RERAISE"}
# Python 3.10's handler set-ups, whose target is reached only by an exception.
_HANDLER_SETUP = {"SETUP_FINALLY", "SETUP_WITH", "SETUP_ASYNC_WITH"}


class _Gate:
    """The lines and arcs the traced suite runs, per package file."""

    def __init__(self):
        self.files: dict[str, tuple[set, set] | None] = {}  # co_filename -> (lines, arcs)
        self.by_path: dict[str, tuple[set, set]] = {}  # real path -> the same pair
        self.missing: list[str] = []
        self.untaken: list[str] = []

    def _record(self, filename: str):
        real = os.path.realpath(filename)
        record = self.by_path.setdefault(real, (set(), set())) if real.startswith(_PREFIX) else None
        self.files[filename] = record
        return record

    def trace(self, frame, event, arg):
        """The global trace function: follows the frames of package code only."""
        filename = frame.f_code.co_filename
        record = self.files[filename] if filename in self.files else self._record(filename)
        if record is None:
            return None
        lines, arcs = record
        last = frame.f_lineno  # the line a call or a resumed generator enters at
        lines.add(last)

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                line = frame.f_lineno
                lines.add(line)
                arcs.add((last, line))
                last = line
            return local
        return local

    def check(self) -> None:
        """Compare what ran with each package file's function bodies."""
        for path in sorted(PACKAGE.glob("*.py")):
            real = os.path.realpath(path)
            lines, arcs = self.by_path.get(real, (set(), set()))
            module = compile(path.read_text(encoding="utf-8"), real, "exec")
            name = path.relative_to(PACKAGE.parents[1])
            for code in _functions(module):
                line_at = _line_at(code)
                for line in sorted(set(line_at.values()) - {None} - lines):
                    self.missing.append(f"{name}:{line} in {code.co_name}")
                for a, b in sorted(_arcs(code, line_at) - arcs):
                    self.untaken.append(f"{name}:{a}->{b} in {code.co_name}")


def _functions(code):
    """The function code objects nested in ``code``, itself included if it is one."""
    if code.co_flags & inspect.CO_OPTIMIZED:
        yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _functions(const)


def _line_at(code) -> dict[int, int | None]:
    """Each instruction's offset -> its source line, or None for an
    instruction the compiler added that belongs to no line."""
    return {offset: line for start, end, line in code.co_lines()
            for offset in range(start, end, 2)}


def _arcs(code, line_at) -> set[tuple[int, int]]:
    """The line-to-line transitions that one code object's bytecode allows,
    exceptions aside: from each instruction's line to the line of each
    instruction that can run next, looking through instructions of no line."""
    instructions = list(dis.get_instructions(code))
    successors = {}
    for ins, after in zip(instructions, instructions[1:] + [None]):
        successors[ins.offset] = []
        if (ins.opcode in dis.hasjrel or ins.opcode in dis.hasjabs) and \
                ins.opname not in _HANDLER_SETUP:
            successors[ins.offset].append(ins.argval)
        if after is not None and ins.opname not in _GOTO | _EXIT:
            successors[ins.offset].append(after.offset)

    def next_lines(offset, seen):
        for nxt in successors[offset]:
            if line_at[nxt] is not None:
                yield line_at[nxt]
            elif nxt not in seen:
                seen.add(nxt)
                yield from next_lines(nxt, seen)

    return {(line_at[offset], b) for offset in successors if line_at[offset] is not None
            for b in next_lines(offset, set()) if b != line_at[offset]}


_GATE = _Gate()


def pytest_configure(config):
    sys.settrace(_GATE.trace)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    _GATE.check()
    if _GATE.missing and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    write = terminalreporter.write_line
    terminalreporter.section("line gate")
    write(f"{len(_GATE.untaken)} arcs never taken (report only):")
    for arc in _GATE.untaken:
        write(f"  {arc}")
    write(f"{len(_GATE.missing)} function-body lines never run:")
    for line in _GATE.missing:
        write(f"  {line}")
