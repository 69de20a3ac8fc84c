"""Solvers and experiment harness for learning parity with noise."""

from .gf2 import (
    BitVec,
    BlockLayout,
    GaussResult,
    GaussStatus,
)
from .instance import (
    ExampleSource,
    ReplaySource,
    StreamExhausted,
    empirical_error,
    new_source,
)
from .instfile import (
    InstanceData,
    InstanceFormatError,
    generate_instance,
    read_instance,
    replay_source,
    write_instance,
)
from .online import OnlineReport, run_online
from .solvers import (
    BudgetExceededError,
    ISample,
    SolverConfig,
    SolverResult,
    SolverStatus,
    choose_parameters,
    collect_votes,
    gaussian_baseline,
    merge_step,
    mle_bruteforce,
    predicted_bias,
    recover_target,
    repetitions_for,
    xor_chain_oracle,
)

__version__ = "0.1.0"
