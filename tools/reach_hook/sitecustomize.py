"""Reach's collector: with this directory on ``PYTHONPATH`` and
``REACH_OUT`` naming a directory, every Python process records which
``src/`` lines it runs, one ``filename:line`` per line the first time it
runs, into ``REACH_OUT/<pid>.txt``.  A ``sys.settrace`` line hook; a code
object stops being traced once every one of its lines has run.  Children
started under the same environment record too.  ``tools/reach.py`` reads
the files back, and takes ``code_lines`` from here (loaded under another
module name, so loading it starts no collector)."""

import dis
import os
import sys
import threading


def code_lines(code):
    """The lines of ``code`` (not of the code objects nested in it) that a
    ``line`` event can report: those of the instructions after its first
    ``RESUME``.  The prefix before it (``MAKE_CELL``, ``RETURN_GENERATOR``,
    the ``RESUME`` on a def's own line, a module's line 0) reports none.
    Python 3.11 and later (``RESUME``, ``Instruction.positions``)."""
    lines, started = set(), False
    for ins in dis.get_instructions(code):
        if started and ins.positions.lineno:
            lines.add(ins.positions.lineno)
        started = started or ins.opname == "RESUME"
    return lines


def _reach(out_dir):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src") + os.sep
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    # Each code object's lines not yet run, by identity (two functions can
    # hold equal code objects); the code object rides along so its id
    # stays taken.
    left = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            todo = left[id(frame.f_code)][1]
            if frame.f_lineno in todo:
                todo.discard(frame.f_lineno)
                pid = os.getpid()
                fh = files.get(pid)
                if fh is None:
                    fh = files[pid] = open(os.path.join(out_dir, f"{pid}.txt"), "a",
                                           buffering=1)
                fh.write(f"{frame.f_code.co_filename}:{frame.f_lineno}\n")
            if not todo:
                return None
        return trace_lines

    def trace(frame, event, arg):
        code = frame.f_code
        entry = left.get(id(code))
        if entry is None:
            todo = code_lines(code) if code.co_filename.startswith(src) else set()
            entry = left[id(code)] = (code, todo)
        return trace_lines if entry[1] else None

    threading.settrace(trace)
    sys.settrace(trace)


if __name__ == "sitecustomize" and os.environ.get("REACH_OUT"):
    _reach(os.environ["REACH_OUT"])
