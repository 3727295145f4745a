"""Equilibrium limit-order-book toolkit.

Closed-form book shapes and spread equations for markets where informed
market makers race informed traders after efficient-price jumps, an
event-driven Monte Carlo simulator validating the zero-profit conditions,
a market-by-order log parser/replayer and trade-signature analytics.
"""

from .laws import (
    Exponential,
    JumpLaw,
    LaplaceVolume,
    NormalVolume,
    Pareto,
    PointMass,
    VolumeLaw,
)
from .equilibrium import (
    UNBOUNDED,
    BookShape,
    JumpSource,
    ModelParams,
    MultiSourceParams,
    ParamGrid,
    SolverError,
    SpreadArrays,
    SpreadSolution,
    UnfillableLevelError,
    ZeroSpreadRegime,
    book_curves,
    gain_imm,
    shape_continuous,
    shape_multi,
    shape_tick,
    solve_spreads,
    spread,
    theta_bar,
)
from .simulator import LevelPnl, SimConfig, SimResult, run
from .mbo import EventLog, Replay, parse, reconstruct, write_csv
from .signature import (
    ClusterSpec,
    QuoteSeries,
    SignatureCurve,
    TradeTable,
    build_trade_records,
    classify,
    micro_price,
    mid_price,
    signature_curves,
)

__version__ = "0.1.0"
