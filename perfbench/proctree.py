"""CPU time and peak memory of this process and all its descendants
(the Spark JVM and its Python workers), read from ``/proc``."""
from __future__ import annotations

import os

_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:  # the process ended between listing and reading
        return None
    # Fields after the parenthesised command name, which may hold spaces.
    return raw[raw.rindex(")") + 2 :].split()


def tree(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and every live descendant."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit() and (st := _stat(int(name))) is not None:
            children.setdefault(int(st[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def cpu_s(root: int | None = None) -> float:
    """User + system CPU seconds of the tree, including children that
    have ended and been reaped by a live member."""
    total = 0
    for pid in tree(root):
        if (st := _stat(pid)) is not None:
            total += sum(int(v) for v in st[11:15])  # utime stime cutime cstime
    return total / _TICK


def peak_rss_mb(root: int | None = None) -> float:
    """Sum over the live tree of each process's peak resident set."""
    kb = 0
    for pid in tree(root):
        try:
            with open(f"/proc/{pid}/status") as fh:
                kb += next((int(l.split()[1]) for l in fh if l.startswith("VmHWM:")), 0)
        except OSError:
            continue
    return kb / 1024
