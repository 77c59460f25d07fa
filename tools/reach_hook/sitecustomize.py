"""Reach's collector: with this directory on ``PYTHONPATH`` and
``REACH_OUT`` naming a directory, every Python process records which
``src/`` functions it enters, one ``filename:first line`` per code
object, into ``REACH_OUT/<pid>.txt``.  Call events only, through
``sys.settrace``; children started under the same environment record
too.  ``tools/reach.py`` reads the files back."""

import os
import sys
import threading


def _reach(out_dir):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src") + os.sep
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    # By identity: two functions can hold equal code objects.  The list
    # keeps every id taken.
    seen, held = set(), []

    def trace(frame, event, arg):
        code = frame.f_code
        if id(code) in seen:
            return
        seen.add(id(code))
        held.append(code)
        # A module's own code starts at line 1, like a def on line 1.
        if code.co_filename.startswith(src) and code.co_name != "<module>":
            pid = os.getpid()
            fh = files.get(pid)
            if fh is None:
                fh = files[pid] = open(os.path.join(out_dir, f"{pid}.txt"), "a", buffering=1)
            fh.write(f"{code.co_filename}:{code.co_firstlineno}\n")

    threading.settrace(trace)
    sys.settrace(trace)


if os.environ.get("REACH_OUT"):
    _reach(os.environ["REACH_OUT"])
