"""The host's current speed, read from a fixed piece of work that is not the
program.

The benchmark runs on a few cores of a shared virtual machine whose speed
moves between a fast and a slow state for stretches of seconds to a minute:
pure-Python work takes up to twice as long in the slow one. The same seed
then gives timings that differ by up to that factor from run to run, whatever
statistic is taken over a run, because a whole run can fall into one state.

So the replay times `host_work` between chunks of events, and scales every
time measured in a chunk by `REFERENCE_NS` over the mean of the host work
timed just before and just after it. Reported times are thus times at the
reference speed: the speed at which `host_work` takes `REFERENCE_NS`, about
the fast state of a 2-vCPU Intel Xeon virtual machine under Python 3.11. A
change to the program moves them as it moves raw times; a change of the
host's state does not, as far as the program's work slows like `host_work`
does. The raw times are kept beside the scaled ones in the results file.

Compute-bound interpreter work slows more in the slow state than work that
waits on memory, and the workloads lie between the two, so `host_work` is a
mix of both in about equal parts."""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from time import perf_counter_ns

#: duration of `host_work` at the reference speed
REFERENCE_NS = 2_000_000


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right

    def value(self, env):
        left = self.left.value(env) if isinstance(self.left, _Node) else env.get(self.left, 0.0)
        right = (
            self.right.value(env) if isinstance(self.right, _Node) else env.get(self.right, 0.0)
        )
        op = self.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        return left if left > right else right


_TREE = _Node("+", _Node("*", "x", "y"), _Node("max", _Node("-", "x", "z"), "y"))
_STEP = Fraction(1, 3)


class _Keyed:
    __slots__ = ("panes", "total")

    def __init__(self, panes: int):
        self.panes = [0.0] * panes
        self.total = 0.0


#: a keyed table of about 2 MiB, larger than a core's L2 cache
_TABLE = {key: _Keyed(256) for key in range(500)}
_KEYS = [random.Random(5).randrange(500) for _ in range(1300)]


def host_work() -> float:
    """A fixed amount of interpreter work, half compute-bound and half
    memory-bound; it allocates only objects it frees again before it
    returns."""
    return _compute_work() + _memory_work()


def _compute_work() -> float:
    """Expression-tree evaluation, a sliding list, small dicts and tuples,
    and `Fraction` ticks."""
    env = {"x": 1.5, "y": 0.25, "z": 3.0}
    window: list = []
    acc = 0.0
    for i in range(500):
        env["x"] = (i % 97) * 0.5
        window.append(_TREE.value(env))
        if len(window) > 64:
            del window[0]
        acc += sum(window) / len(window)
    rows: list = []
    for i in range(400):
        row = {"ts": i * 0.5, "a": i, "b": (i, i + 1)}
        rows.append(tuple(sorted(row)))
        if len(rows) > 200:
            rows = rows[100:]
    tick = Fraction(0)
    for i in range(80):
        tick += _STEP
        if tick.denominator == 1:
            acc += 1
        acc += float(tick) > i * 0.3
    return acc + len(rows)


def _memory_work() -> float:
    """Updates of keyed entries scattered over `_TABLE`, then a scan of all
    of them. The pane values only ever grow, so the work stays the same."""
    acc = 0.0
    for i, key in enumerate(_KEYS):
        entry = _TABLE[key]
        panes = entry.panes
        panes[i & 255] += 1.0
        entry.total = sum(panes[:64])
        acc += entry.total
    return acc + sum(1 for entry in _TABLE.values() if entry.total < 0.0)


def time_host_work() -> int:
    """Nanoseconds `host_work` takes now. The collector is off meanwhile, so
    that the probe neither runs a collection nor moves the program's next one."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter_ns()
        host_work()
        return perf_counter_ns() - started
    finally:
        if enabled:
            gc.enable()


def scale(before_ns: int, after_ns: int) -> float:
    """Factor that turns a time measured between two probes into a time at
    the reference speed."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)
