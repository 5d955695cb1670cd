"""Run one benchmark workload against the pgtemplates sources of this
checkout and print one JSON result line.

    python3 pgtbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The inputs are made from the seed.  A worker process imports
pgtemplates.cli (the timed set-up) and then runs the workload's `pgt`
commands in-process, one at a time: a closed loop with one client.
Whole passes over the commands repeat until the next pass would end
after `--seconds`; at least one pass runs, three with `--trace 1`.  The
outputs of the first pass are checked against the benchmark's own
reference solver and checks, later passes must print the same.

With --trace 0 the result holds the end-to-end metrics: time per
command kind over one pass (median over passes), set-up time and the
worker's peak resident memory.  Times are scaled by a probe run around
every command to a machine of fixed speed (README, "Probe scaling").
With --trace 1, passes alternate untraced and traced, and the result
holds the per-layer metrics of the traced passes and the tracing
overhead.
"""
from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
from layers import COUNTERS, LAYER_CALLS, LAYER_TIMES, PER_LAYER_UNITS  # noqa: E402
from workloads import COMMAND_METRICS, WORKLOADS  # noqa: E402

# Command times are scaled to a machine on which the worker's probe
# (worker.probe) takes this long; see the README, "Probe scaling".
PROBE_NOMINAL_S = 0.034


class Worker:
    """The process that does the program's work."""

    def __init__(self):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(ROOT / "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line != "ready\n":
            raise RuntimeError("worker failed to import pgtemplates.cli")

    def request(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker died")
        return json.loads(line)

    def close(self) -> float:
        """Ends the worker; returns its peak resident memory in MB."""
        rss = self.request({"exit": True})["maxrss_kb"] / 1024.0
        self.proc.wait(timeout=60)
        return rss

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _argv(op, pdir: Path) -> list:
    return [str(pdir) + a[1:] if a.startswith("@/") else a for a in op.argv]


_CUMULATIVE = re.compile(r"\(cumulative [0-9.]+s\)")


def _same_outputs(a: Path, b: Path) -> bool:
    """Two pass directories hold the same outputs, timings aside."""
    for f in sorted(a.iterdir()):
        try:
            x, y = f.read_text(encoding="ascii"), (b / f.name).read_text(encoding="ascii")
        except (OSError, UnicodeDecodeError):
            return False
        if _CUMULATIVE.sub("", x) != _CUMULATIVE.sub("", y):
            return False
    return True


class Pass:
    """One pass over the workload's commands."""

    __slots__ = ("traced", "pdir", "times", "summaries", "probes")

    def __init__(self, traced: bool, pdir: Path):
        self.traced = traced
        self.pdir = pdir
        self.times = dict.fromkeys(COMMAND_METRICS, 0.0)
        self.summaries = []  # per traced command: (span summary, scale)
        self.probes = []

    def add(self, metric: str, reply: dict) -> None:
        """Add one command's time, scaled from seconds on this machine to
        seconds at the nominal probe time by the probe around it."""
        scale = PROBE_NOMINAL_S / reply["probe"]
        self.times[metric] += reply["seconds"] * scale
        self.probes.append(reply["probe"])
        if self.traced:
            self.summaries.append((reply["trace"], scale))

    def total(self) -> float:
        return sum(self.times.values())


def _layer_metrics(p: Pass) -> dict:
    """Per-layer metrics of one traced pass from its command summaries."""
    calls, total_self, size = {}, {}, {}
    fast = slow = compose_solves = 0
    for s, scale in p.summaries:
        for name, (n, self_s, sz) in s["layers"].items():
            calls[name] = calls.get(name, 0) + n
            total_self[name] = total_self.get(name, 0.0) + self_s * scale
            size[name] = size.get(name, 0) + sz
        fast += s["fast"]
        slow += s["slow"]
        compose_solves += s["compose_solves"]
    out = {name + "_s": total_self.get(name, 0.0) for name in LAYER_TIMES}
    out.update({name + "_calls": calls.get(name, 0) for name in LAYER_CALLS})
    folded = size.get("compose.compose_templates", 0)
    out.update({
        "gameio.parse_game_mb": size.get("gameio.parse_game", 0) / 1e6,
        "solvers.live_groups_emitted": size.get("solvers.reach_template", 0),
        "compose.solves_per_objective": compose_solves / folded if folded else 0.0,
        "fault.fast_path": fast,
        "fault.slow_path": slow,
        "cli.self_s": total_self.get("cli.main", 0.0),
    })
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = HERE / "work" / ("%s-%d" % (workload, seed))
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    worker = None
    try:
        ops = WORKLOADS[workload](seed, work / "in")
        worker = Worker()
        attempted = failed = 0
        passes = []
        start = time.perf_counter()
        while True:
            p = Pass(trace and len(passes) % 2 == 1, work / ("p%d" % len(passes)))
            p.pdir.mkdir()
            for op in ops:
                reply = worker.request({"argv": _argv(op, p.pdir),
                                        "stdout": str(p.pdir / op.out), "trace": p.traced})
                attempted += 1
                if reply["rc"] != 0:
                    failed += 1
                    print("%s: exit code %s" % (" ".join(op.argv), reply["rc"]),
                          file=sys.stderr)
                p.add(op.metric, reply)
            passes.append(p)
            elapsed = time.perf_counter() - start
            if (len(passes) >= (3 if trace else 1)
                    and elapsed * (len(passes) + 1) / len(passes) > seconds):
                break
        peak_rss_mb = worker.close()
        correct = check(ops, passes)
        probe_s = statistics.median(x for p in passes for x in p.probes)
        if trace:
            metrics = _traced_metrics(ops, passes, probe_s)
            if metrics is None:
                correct = False
                metrics = {}
        else:
            metrics = {m: {"value": statistics.median(p.times[m] for p in passes),
                           "unit": "s"} for m in COMMAND_METRICS}
            # not scaled: the set-up's speed does not follow the probe's
            # (README, "Probe scaling")
            metrics["setup_s"] = {"value": worker.setup_s, "unit": "s"}
            metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        if worker is not None:
            worker.kill()
        shutil.rmtree(work, ignore_errors=True)


def check(ops, passes) -> bool:
    """Check the first pass's outputs; later passes must repeat them."""
    first = passes[0].pdir
    ok = True
    for op in ops:
        try:
            op.check(first)
        except (reference.CheckFailed, ValueError, OSError) as exc:
            print("check failed: %s: %s" % (" ".join(op.argv), exc), file=sys.stderr)
            ok = False
    for p in passes[1:]:
        if not _same_outputs(first, p.pdir):
            print("check failed: %s differs from the first pass" % p.pdir.name,
                  file=sys.stderr)
            ok = False
    return ok


def _traced_metrics(ops, passes, probe_s: float) -> dict | None:
    """Per-layer metrics: medians of the traced passes' times, counters of
    the first traced pass (they must repeat exactly), the tracing
    overhead and the probe time.  None when a counter differs between
    passes or disagrees with what the commands printed."""
    traced = [(p, _layer_metrics(p)) for p in passes if p.traced]
    missing = traced[0][0].summaries[0][0]["missing"]
    if missing:
        print("not traced, no such function: %s" % ", ".join(missing), file=sys.stderr)
    first = traced[0][1]
    for p, m in traced:
        if any(m[c] != first[c] for c in COUNTERS):
            print("counters differ between passes", file=sys.stderr)
            return None
        said = [0, 0]
        for op in ops:
            if op.metric == "fault_s":
                out = (p.pdir / op.out).read_text(encoding="ascii")
                said[0] += out.startswith("adapted by marking")
                said[1] += out.startswith("conflict; re-solved")
        if said != [m["fault.fast_path"], m["fault.slow_path"]]:
            print("fault path counts from the wrappers (%d fast, %d slow) differ "
                  "from pgt fault's output (%d, %d)" % (m["fault.fast_path"],
                  m["fault.slow_path"], said[0], said[1]), file=sys.stderr)
            return None
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in COUNTERS:
            value = first[name]
        elif name == "trace.overhead_s":
            # the first pass warms the worker up, so it is left out
            value = (statistics.median(p.total() for p, _ in traced)
                     - statistics.median(p.total() for p in passes[1:] if not p.traced))
        elif name == "machine.probe_s":
            value = probe_s
        else:
            value = statistics.median(m[name] for _, m in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "pgtemplates" / "cli.py").is_file():
        print("error: no pgtemplates sources at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
