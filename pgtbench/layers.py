"""The layers of the traced run, named once for the worker and run.py.

TARGETS lists (module, function, layer name) for every pgtemplates
function the worker wraps.  Every layer gets a self time; the layers in
LAYER_CALLS also get a call count.  PER_LAYER_UNITS is the full set of
per-layer metrics with their units, as BENCHMARK.json lists them
(selftest.py checks that the two agree).
"""

TARGETS = [
    ("gameio", "parse_game", "gameio.parse_game"),
    ("gameio", "parse_template", "gameio.parse_template"),
    ("gameio", "template_text", "gameio.template_text"),
    ("gameio", "strategy_text", "gameio.strategy_text"),
    ("solvers", "parity_template", "solvers.parity_template"),
    ("solvers", "parity_parts", "solvers.parity_parts"),
    ("solvers", "reach_template", "solvers.reach_template"),
    ("transformers", "attr_mask", "transformers.attr"),
    ("transformers", "uattr_mask", "transformers.uattr"),
    ("transformers", "cpre_mask", "transformers.cpre"),
    ("template", "find_conflicts", "template.find_conflicts"),
    ("compose", "compose_templates", "compose.compose_templates"),
    ("compose", "relabel", "compose.relabel"),
    ("strategy", "extract_strategy", "strategy.extract_strategy"),
    ("strategy", "verify_strategy", "strategy.verify_strategy"),
    ("fault", "fault_correction", "fault.fault_correction"),
    ("fault", "delete_edges", "fault.delete_edges"),
]
LAYER_TIMES = [name for _, _, name in TARGETS]
LAYER_CALLS = [
    "gameio.parse_game", "solvers.reach_template", "solvers.parity_parts",
    "transformers.attr", "transformers.uattr", "transformers.cpre",
    "template.find_conflicts", "compose.relabel",
]
# counters that must repeat exactly from pass to pass
COUNTERS = ([name + "_calls" for name in LAYER_CALLS]
            + ["gameio.parse_game_mb", "solvers.live_groups_emitted",
               "compose.solves_per_objective", "fault.fast_path", "fault.slow_path"])
PER_LAYER_UNITS = {**{name + "_s": "s" for name in LAYER_TIMES},
                   **{name: "count" for name in COUNTERS},
                   "gameio.parse_game_mb": "MB", "compose.solves_per_objective": "ratio",
                   "cli.self_s": "s", "trace.overhead_s": "s", "machine.probe_s": "s"}
