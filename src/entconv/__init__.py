"""Two-qubit entanglement convertibility.

The package decides when one two-qubit state can reach another under local
operations and classical communication, synthesizes explicit protocols for
the families where the answer is constructive, and ships randomized
falsifiers that hunt for counterexamples to the rules it relies on.

Layering, lowest first: ``kernels`` (numpy array routines, which the layers
above call directly), ``qmat`` (the validated eigensolver, matrix checks
and constants), ``states`` (validated density matrices and the named families),
``measures`` (entanglement measures and the Bell-diagonal monotone triple),
``channels`` (separable Kraus channels and protocol atoms),
``convertibility`` (decision rules and synthesis), ``oracle`` (randomized
falsifiers and numeric protocol search, imported on first use), ``cli`` (the
``entconv`` command).
"""

import importlib

from .channels import (
    DiscardPrepare,
    LocalUnitary,
    ProbabilisticBranch,
    Protocol,
    SeparableChannel,
    bell_extremal_catalog,
    compile_protocol,
    discard_prepare_channel,
    mix,
    product_diagonal_decomposition,
    renormalize_probabilistic,
)
from .convertibility import (
    Convertible,
    Forbidden,
    Inconclusive,
    decide,
    decide_bell,
    decide_mems,
    decide_werner,
    rank_gate,
    synthesize_mems_protocol,
    verify_protocol,
)
from .errors import (
    BadWeightsError,
    EntconvError,
    InfeasibleError,
    NotEntangledError,
    NotHermitianError,
    NotProductDiagonalError,
    NotSeparableError,
    NotTracePreservingError,
    NotUnitaryError,
    OutOfRangeError,
    SamplingExhaustedError,
)
from .measures import (
    MonotoneTriple,
    bell_monotones,
    binary_entropy,
    concurrence,
    eof,
    negativity,
)
from .states import (
    BellWeights,
    DensityMatrix,
    FamilyTag,
    MemsWeights,
    WernerParam,
    bell_weights_of,
    classify_family,
    is_entangled,
    make_bell_diagonal,
    make_mems,
    make_werner,
    min_pt_eigenvalue,
    random_density_matrix,
)

__version__ = "0.1.0"

# ``oracle`` is the largest module and only the falsifiers and the search need
# it, so it and its exports are imported on first use
_FROM_ORACLE = (
    "SearchReport",
    "convert_search",
    "falsify_rank_monotonicity",
    "monotone_audit",
    "random_separable_channel",
)


def __getattr__(name):
    if name == "oracle" or name in _FROM_ORACLE:
        # not ``from . import oracle``: its hasattr check would call this hook again
        oracle = importlib.import_module(f"{__name__}.oracle")
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BadWeightsError",
    "BellWeights",
    "Convertible",
    "DensityMatrix",
    "DiscardPrepare",
    "EntconvError",
    "FamilyTag",
    "Forbidden",
    "Inconclusive",
    "InfeasibleError",
    "LocalUnitary",
    "MemsWeights",
    "MonotoneTriple",
    "NotEntangledError",
    "NotHermitianError",
    "NotProductDiagonalError",
    "NotSeparableError",
    "NotTracePreservingError",
    "NotUnitaryError",
    "OutOfRangeError",
    "ProbabilisticBranch",
    "Protocol",
    "SamplingExhaustedError",
    "SearchReport",
    "SeparableChannel",
    "WernerParam",
    "bell_extremal_catalog",
    "bell_monotones",
    "bell_weights_of",
    "binary_entropy",
    "classify_family",
    "compile_protocol",
    "concurrence",
    "convert_search",
    "decide",
    "decide_bell",
    "decide_mems",
    "decide_werner",
    "discard_prepare_channel",
    "eof",
    "falsify_rank_monotonicity",
    "is_entangled",
    "make_bell_diagonal",
    "make_mems",
    "make_werner",
    "min_pt_eigenvalue",
    "mix",
    "monotone_audit",
    "negativity",
    "product_diagonal_decomposition",
    "random_density_matrix",
    "random_separable_channel",
    "rank_gate",
    "renormalize_probabilistic",
    "synthesize_mems_protocol",
    "verify_protocol",
]
