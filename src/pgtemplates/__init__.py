"""Permissive strategy templates for two-player games on finite graphs.

Solvers for safety, Büchi, co-Büchi, parity and conjunctions of parity
objectives return, besides the winning regions, a strategy template: a
set of unsafe edges, co-live edges and live-groups that captures many
winning strategies at once.  Templates can be combined objective by
objective, turned into executable round-robin strategies, checked by an
independent verifier, and adapted when edges turn out to be faulty.
"""
from __future__ import annotations

from .compose import (ComposeState, add_objective, compose_templates,
                      pad_to_odd, relabel)
from .fault import (CSV_HEADER, FaultStats, OnlineStrategy, OnlineStrategyError,
                    delete_edges, fault_correction, gaf_tolerant, online_strategy,
                    simulate_fault_conflicts)
from .gameio import (ParseError, emit_game, parse_game, parse_strategy,
                     parse_template, strategy_text, template_text)
from .generator import GeneratorConfig, generate
from .graph import (Edge, GameGraph, GraphBuilder, GraphBuildError, PLAYER0,
                    PLAYER1, PriorityFunction)
from .oracle import (OracleRegions, OracleSizeError,
                     brute_force_gen_parity_region,
                     enumerate_winning_positional, zielonka_regions)
from .solvers import (SolveResult, buchi_template, buchi_win,
                      cobuchi_template, cobuchi_win, parity_template,
                      reach_template, safety_template, safety_win)
from .strategy import (Lasso, Strategy, StrategyDomainError, Verdict,
                       extract_strategy, verify_strategy)
from .template import (ConflictError, ConflictReport, StrategyTemplate,
                       conjoin, find_conflicts)
from .transformers import attr, cpre, uattr, upre

__version__ = "0.1.0"

__all__ = [
    "PLAYER0", "PLAYER1", "Edge",
    "GameGraph", "GraphBuilder", "GraphBuildError", "PriorityFunction",
    "upre", "cpre", "attr", "uattr",
    "StrategyTemplate", "ConflictError", "ConflictReport", "find_conflicts",
    "conjoin",
    "SolveResult", "safety_win", "buchi_win", "cobuchi_win",
    "safety_template", "buchi_template", "cobuchi_template",
    "reach_template", "parity_template",
    "ComposeState", "compose_templates", "add_objective", "pad_to_odd",
    "relabel",
    "Strategy", "StrategyDomainError", "extract_strategy",
    "Lasso", "Verdict", "verify_strategy",
    "OracleRegions", "OracleSizeError", "zielonka_regions",
    "brute_force_gen_parity_region", "enumerate_winning_positional",
    "FaultStats", "OnlineStrategy", "OnlineStrategyError",
    "delete_edges", "fault_correction", "gaf_tolerant", "online_strategy",
    "simulate_fault_conflicts", "CSV_HEADER",
    "ParseError", "parse_game", "emit_game", "template_text",
    "parse_template", "strategy_text", "parse_strategy",
    "GeneratorConfig", "generate",
]
