"""Self-tests for the benchmark's checks: no check is vacuous.

    python3 pgtbench/selftest.py

Runs real `pgt` commands on small games, checks that every check
accepts the correct outputs, then feeds each check a corrupted output
that it must reject.  Exits 1 if a check accepts a corrupted output or
rejects a correct one.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import games  # noqa: E402
import reference as ref  # noqa: E402
from games import Template, parse_strategy, parse_template, template_part  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from workloads import COMMAND_METRICS, fast_faults, slow_faults  # noqa: E402

from pgtemplates import cli  # noqa: E402


def pgt(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise SystemExit("pgt %s exited %d" % (" ".join(map(str, argv)), rc))
    return out.getvalue()


def rejects(what: str, fn, *args) -> bool:
    try:
        fn(*args)
    except ref.CheckFailed as exc:
        print("ok   %s rejected: %s" % (what, exc))
        return True
    print("FAIL %s was accepted" % what)
    return False


def copy(t: Template, **changes) -> Template:
    fields = {"region": set(t.region), "unsafe": set(t.unsafe),
              "colive": set(t.colive), "groups": [set(x) for x in t.groups]}
    fields.update(changes)
    return Template(**fields)


def colive_into_group(g, t: Template):
    """A live-group whose edges from some vertex u are replaced by a
    co-live edge of u; the edge is still co-live, so the group demands
    what the co-live set forbids."""
    for i, group in enumerate(t.groups):
        for u in sorted({e[0] for e in group}):
            colive = sorted(e for e in t.colive if e[0] == u)
            if colive:
                groups = [set(x) for x in t.groups]
                groups[i] = {e for e in group if e[0] != u} | {colive[0]}
                return copy(t, groups=groups)
    return None


def main() -> int:
    results = []
    (HERE / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "work") as tmp:
        d = Path(tmp)
        # a small random game with co-live edges next to live-groups
        for seed in range(200):
            rng = np.random.default_rng([seed, 9])
            g = games.random_game(rng, 40, 120, 5)
            path = d / "g.gpg"
            path.write_text(games.game_text(g), encoding="ascii")
            solved = pgt("solve", path, "-o", d / "g.tpl")
            t = parse_template(template_part(solved))
            if colive_into_group(g, t) is not None:
                break
        else:
            print("FAIL no small game with a co-live edge next to a live-group")
            return 1
        prio = g.prios[0]
        w0 = ref.zielonka_w0(g, prio)
        strat = parse_strategy(pgt("extract", path, "--template", d / "g.tpl"))
        verified = pgt("verify", path, "--template", d / "g.tpl")

        # correct outputs pass every check
        ref.check_region("solve", games.vertex_line(solved, "W0:"), w0)
        ref.check_unsafe_exact(g, t)
        ref.check_conflict_free(g, t)
        ref.check_strategy(g, t, strat)
        ref.check_verify_output(verified, w0)
        print("ok   correct outputs accepted")

        v = min(w0)
        results.append(rejects("region with a vertex dropped", ref.check_region,
                               "solve", w0 - {v}, w0))
        results.append(rejects("unsafe set with an edge dropped", ref.check_unsafe_exact,
                               g, copy(t, unsafe=set(sorted(t.unsafe)[1:]))))
        results.append(rejects("co-live edge moved into a live-group",
                               ref.check_conflict_free, g, colive_into_group(g, t)))
        p0 = sorted(strat)
        results.append(rejects("strategy with a line dropped", ref.check_strategy, g, t,
                               {u: m for u, m in strat.items() if u != p0[0]}))
        results.append(rejects("verify output with a vertex dropped",
                               ref.check_verify_output,
                               "winning from: " + " ".join(map(str, sorted(w0 - {v}))), w0))

        # faults: a fast-path set, then a faulty edge added to the strategy
        # extracted from the adapted template
        rng = np.random.default_rng(5)
        faulty = fast_faults(rng, g, w0, 6)
        fast_out = pgt("fault", path, "--template", d / "g.tpl", "--faulty",
                       games.edge_list_arg(faulty), "-o", d / "f.tpl")
        adapted = parse_template(template_part(fast_out))
        ref.check_fault(g, prio, t, faulty, True, fast_out.startswith("adapted"), adapted)
        fstrat = parse_strategy(pgt("extract", path, "--template", d / "f.tpl"))
        ref.check_strategy(g, adapted, fstrat)
        u, x = next(e for e in sorted(faulty) if e[0] in fstrat)
        bad = dict(fstrat)
        bad[u] = fstrat[u] + [(u, x)]
        results.append(rejects("faulty edge added to a strategy", ref.check_strategy,
                               g, adapted, bad))
        slow = slow_faults(rng, g, w0, 1, 0)
        slow_out = pgt("fault", path, "--template", d / "g.tpl", "--faulty",
                       games.edge_list_arg(slow))
        slow_t = parse_template(template_part(slow_out))
        ref.check_fault(g, prio, t, slow, False, slow_out.startswith("adapted"), slow_t)
        results.append(rejects("fault output on the wrong path", ref.check_fault,
                               g, prio, t, slow, False, True, slow_t))
        results.append(rejects("fault-adapted region with a vertex dropped",
                               ref.check_fault, g, prio, t, slow, False, False,
                               copy(slow_t, region=slow_t.region - {min(slow_t.region)})))

        # composition: a region that grows, one outside a reference, one
        # that gives up winning vertices, an emptied one, a first step
        # that is not the first objective's region
        rng = np.random.default_rng(3)
        cg = games.compose_game(rng, 20, 200, 4, 2, 2)
        cpath = d / "c.gpg"
        cpath.write_text(games.game_text(cg), encoding="ascii")
        composed = pgt("compose", "--incremental", cpath)
        steps = games.compose_steps(composed)
        refs = [ref.zielonka_w0(cg, p) for p in cg.prios]
        final = parse_template(template_part(composed)).region
        keep = cg.w0
        ref.check_compose(steps, final, refs, keep, keep)
        results.append(rejects("composed region that grows", ref.check_compose,
                               [steps[0]] + [steps[1] - {min(steps[1])}] + steps[2:],
                               final, refs))
        results.append(rejects("composed region outside a later reference region",
                               ref.check_compose, [refs[0]] * len(steps), refs[0], refs))
        lost = steps[:-1] + [steps[-1] - {max(keep)}]
        results.append(rejects("composed region that gives up a winning vertex",
                               ref.check_compose, lost, lost[-1], refs, keep))
        results.append(rejects("emptied composed region", ref.check_compose,
                               steps[:-1] + [set()], set(), refs, keep, keep))
        results.append(rejects("composed region short of the closed form",
                               ref.check_compose, lost, lost[-1], refs, set(), keep))
        results.append(rejects("first compose step short of objective 0",
                               ref.check_compose, [steps[0] - {min(steps[0])}] + steps[1:],
                               final, refs))

    # the per-layer and end-to-end metrics named in BENCHMARK.json are the
    # ones run.py reports
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if listed != PER_LAYER_UNITS:
        print("FAIL per_layer of BENCHMARK.json differs from layers.PER_LAYER_UNITS: %s"
              % sorted(set(listed.items()) ^ set(PER_LAYER_UNITS.items())))
        results.append(False)
    e2e = {m["name"] for m in bench["end_to_end"]}
    if e2e != set(COMMAND_METRICS) | {"setup_s", "peak_rss_mb"}:
        print("FAIL end_to_end of BENCHMARK.json differs from the metrics run.py reports")
        results.append(False)
    if not all(results):
        return 1
    print("all %d corrupted outputs rejected" % len(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
