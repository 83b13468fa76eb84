"""vivipar: a parallel portfolio CDCL SAT solver with vivification-based
learned-clause minimization (PCM, LPCM, ECM)."""

from .cdcl import SAT, UNSAT, UNKNOWN, Engine, EngineConfig, luby
from .exchange import SharedClause, SharedPool
from .formula import Clause, Formula, ParseError, parse_dimacs, parse_dimacs_file, to_dimacs
from .harness import RunRecord, cli_main, emit_csv, gen_random_3sat
from .portfolio import (ConfigError, PortfolioConfig, PortfolioResult, WorkerFault,
                        diversify, run)
from .stats import Stats, merge_stats
from .strategy import LPCM, NONE, PCM, LcmMode, Strategy, ecm, mode_from_label
from .vivify import VivifyOutcome, select_candidates, vivify_clause

__version__ = "0.1.0"

__all__ = [
    "SAT", "UNSAT", "UNKNOWN", "Engine", "EngineConfig", "luby",
    "SharedClause", "SharedPool",
    "Clause", "Formula", "ParseError", "parse_dimacs", "parse_dimacs_file", "to_dimacs",
    "RunRecord", "cli_main", "emit_csv", "gen_random_3sat",
    "ConfigError", "PortfolioConfig", "PortfolioResult", "WorkerFault", "diversify", "run",
    "Stats", "merge_stats",
    "LPCM", "NONE", "PCM", "LcmMode", "Strategy", "ecm", "mode_from_label",
    "VivifyOutcome", "select_candidates", "vivify_clause",
]
