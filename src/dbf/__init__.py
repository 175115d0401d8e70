"""Spectral simulator for chiral electromagnetic media on the periodic torus.

The runtime, what the `dbf` commands execute, is five modules, each
importing only those before it: weighted_time (exponentially weighted
signals, their order-0 norm, material symbols), curl_spectral (the curl
eigenbasis on the 3-torus), evo_solver (the stacked block solvers),
dbf_model (the chiral constitutive law, classical and generalized, solved
piece by piece and folded into its checks) and cli (scenario files, batch
runs, verification, sweeps), which writes its CSV series through csv_cells.
The names below are that runtime's.  The paper's identities that the
tests check (the Fourier-Laplace transform and its Spectrum, the norms of
orders other than 0, the projector, reduced resolvent and bounded
generator C, the one-block solvers, the naive (D, B) diagnosis, the
nu-independence of the calculus) are in dbf.paper, which imports the
runtime; neither this package nor any runtime module imports it.
"""

from .curl_spectral import FieldPair, Mode, ModeTable, SpectralField, build_basis
from .dbf_model import (
    DBFScenario,
    FieldHistory,
    GeneralizedScenario,
    HypothesisViolated,
    NeumannDiverges,
    NonFiniteSolution,
    PairSeries,
    RangeViolation,
    solve,
)
from .evo_solver import NoConvergence, NotContractive, WrongCase, causal_resolvent
from .weighted_time import MaterialSymbol, TimeGrid, WeightedSignal, weighted_norm

__version__ = "0.1.0"
