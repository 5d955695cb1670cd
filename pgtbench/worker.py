"""Benchmark worker: runs `pgt` commands in-process, one at a time.

Started as `python3 worker.py <src-dir>`.  It imports pgtemplates.cli
first and prints "ready", so the parent can time a cold set-up from the
process start.  Then it reads one JSON request per line on stdin,

    {"argv": [...], "stdout": "<file>", "trace": true|false}

runs `pgtemplates.cli.main(argv)` with standard output sent to the file,
and answers one JSON line: exit code, seconds spent in the command, the
mean seconds of a fixed probe run just before and just after it (the
probe after one command is the probe before the next) and, for a traced
command, the per-layer span summary.  The request
{"exit": true} is answered with the peak resident memory, then the
worker ends.
"""
import sys

sys.path.insert(0, sys.argv[1])
import pgtemplates.cli as cli  # noqa: E402  (the set-up being timed)

sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

# Modules import the wrapped names directly (`from .transformers import
# attr_mask`), so a wrapper goes into every pgtemplates namespace that
# holds the function object.
from layers import TARGETS  # noqa: E402


class Tracer:
    """Spans (name, start, end, parent, size) kept in memory for one
    command.  `size` is the work count a span carries: bytes parsed by
    parse_game, live-groups returned by reach_template, objectives folded
    by compose_templates."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.patched = []
        self.missing = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "gameio.parse_game":
                span[4] = len(args[0])
            elif name == "solvers.reach_template":
                span[4] = len(result)
            elif name == "compose.compose_templates":
                span[4] = len(args[2])
            return result

        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "pgtemplates" or k.startswith("pgtemplates.")]
        for mod, fname, name in TARGETS:
            fn = getattr(sys.modules.get("pgtemplates." + mod), fname, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        self.patched.append((m, attr, fn))

    def uninstall(self):
        for m, attr, fn in self.patched:
            setattr(m, attr, fn)
        self.patched = []

    def run(self, fn):
        """Run fn under a root span 'cli.main'."""
        return self._wrap("cli.main", fn)()

    def summary(self):
        """Per layer: [calls, self seconds, size], plus the fault path
        split and the parity_parts calls made under compose."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        layers = {}
        fast = slow = compose_solves = 0
        slow_parents = {s[3] for s in spans if s[0] == "fault.delete_edges"}
        for i, (name, start, end, parent, size) in enumerate(spans):
            entry = layers.setdefault(name, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += end - start - child[i]
            entry[2] += size
            if name == "fault.fault_correction":
                if i in slow_parents:
                    slow += 1
                else:
                    fast += 1
            elif name == "solvers.parity_parts" and self._under(i, "compose.compose_templates"):
                compose_solves += 1
        return {"layers": layers, "fast": fast, "slow": slow,
                "compose_solves": compose_solves, "missing": self.missing}

    def _under(self, i, name):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False


_PROBE = np.random.default_rng(0).integers(0, 1_000_000, 200_000)
_PROBE_TEXT = "\n".join("%d %d 0 %d,%d;" % (i, i % 5, j, j % 9973)
                         for i, j in enumerate(_PROBE[:8000].tolist()))
_PROBE_RE = re.compile(r"(\d+) (\d+) ([01]) ([\d,]+);")


def probe() -> float:
    """Seconds for a fixed mix of interpreter and numpy work like the
    program's (parsing records with a regex, building lists and dicts,
    sorting, counting, gathering), using no pgtemplates code: how fast
    this CPU runs right now."""
    start = time.perf_counter()
    recs = {}
    for m in _PROBE_RE.finditer(_PROBE_TEXT):
        recs[int(m.group(1))] = (int(m.group(2)), [int(x) for x in m.group(4).split(",")])
    a = np.sort(_PROBE)
    np.bincount(a % 100_000)
    a[np.argsort(_PROBE[:50_000])]
    return time.perf_counter() - start


def main():
    # the probe tracks the speed of the CPU it runs on, so the worker
    # stays on one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    reply = sys.stdout
    after = None
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("exit"):
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply.write(json.dumps({"maxrss_kb": rss}) + "\n")
            reply.flush()
            return
        before = after if after is not None else probe()
        tracer = Tracer() if req["trace"] else None
        if tracer:
            tracer.install()
        try:
            with open(req["stdout"], "w", encoding="ascii") as out, \
                    contextlib.redirect_stdout(out):
                t0 = time.perf_counter()
                try:
                    if tracer:
                        rc = tracer.run(lambda: cli.main(req["argv"]))
                    else:
                        rc = cli.main(req["argv"])
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    traceback.print_exc()
                    rc = -1
                out.flush()
                seconds = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        after = probe()
        answer = {"rc": rc, "seconds": seconds, "probe": (before + after) / 2}
        if tracer:
            answer["trace"] = tracer.summary()
        reply.write(json.dumps(answer) + "\n")
        reply.flush()


main()
