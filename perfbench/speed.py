"""The host's speed, measured with a fixed task between decisions.

On a shared host the CPU itself runs 10-40 % faster or slower from one
minute to the next, so even CPU time moves that much from run to run.
A fixed pure-Python task, independent of hornsep, is timed between the
decisions: small frozensets of tuples built, unioned and hashed into a
dict, the kind of work the automata do with their state sets.  Each time
is then divided by the speed factor, the mean time of one task divided
by ``TASK_S``.  Slow and fast minutes slow and speed up the task and the
decisions together, so the quotient stays put; the figures read as CPU
seconds on a host that runs one task in ``TASK_S``.

The task is kept at ``SHARE`` of the decisions' CPU time, topped up
before each decision, so that its samples spread over the run in step
with the decisions they scale.
"""

from __future__ import annotations

import random
import time

TASK_S = 0.0022  # CPU seconds of one task on the host the bounds were set on
SHARE = 0.2

_rng = random.Random(5)
_POOL = [tuple(_rng.randrange(40) for _ in range(3)) for _ in range(4000)]


def task() -> int:
    seen = {}
    n = 0
    for i in range(0, 400, 4):
        s = frozenset(_POOL[i:i + 4])
        for t in _POOL[n % 3000:n % 3000 + 12]:
            u = s | {t}
            if u not in seen:
                seen[u] = (len(u), min(u))
        n += 37
    return len(seen)


class Speed:
    """CPU time of the decisions and of the tasks run beside them."""

    def __init__(self):
        self.program = 0.0  # CPU seconds of the decisions
        self.cpu = 0.0  # CPU seconds of the tasks
        self.tasks = 0

    def add(self, program_cpu: float):
        self.program += program_cpu

    def top_up(self):
        """Run the task until it has used ``SHARE`` of the decisions' time."""
        while self.cpu < SHARE * self.program:
            t = time.process_time()
            task()
            self.cpu += time.process_time() - t
            self.tasks += 1

    def mark(self) -> tuple:
        return self.cpu, self.tasks

    def factor(self, since: tuple = (0.0, 0)) -> float:
        """Mean task time since ``since`` over ``TASK_S``; over the whole
        run when no task ran since then."""
        cpu, n = self.cpu - since[0], self.tasks - since[1]
        if n == 0:
            cpu, n = self.cpu, self.tasks
        return cpu / n / TASK_S
