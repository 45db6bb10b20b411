"""Exact and asymptotic return probabilities for reflected random walks on N0.

The chain X_{n+1} = |X_n + Y_{n+1}| is driven by a finitely supported integer
increment law. This package computes its n-step laws exactly, factorizes the
associated ladder structure in closed form, and assembles the n -> infinity
return-probability constants, each cross-checked against independent
dynamic-programming and Monte Carlo oracles.

The top level exports what the command line, the demos and the README quick
start use, with the types they return and the errors they raise; every other
name is imported from its module.
"""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticLaw,
    asymptotic_law,
    centered_constant,
    constant_report,
    drifted_constant,
    oracle_constant_centered,
    oracle_constant_drifted,
    predict,
    tilting_identity_check,
)
from .chain import (
    StepRow,
    excursion_table,
    n_step_rows,
    n_step_series,
    n_step_table,
    reflection_time_table,
    step_row,
    verify_first_reflection_identity,
    verify_ladder_factorizations,
)
from .errors import (
    ConvergenceFailure,
    DegenerateLaw,
    HorizonTooLarge,
    InvalidInput,
    InvalidLaw,
    InvalidSimConfig,
    NegativeDriftUnsupported,
    NoReflectionsObserved,
    NonPositiveArgument,
    NotCentered,
    NotInvertibleCentered,
    ReflectWalkError,
    RootClusterUnresolved,
    SingularSystem,
    SlopeMismatch,
    StationarityFailure,
)
from .fluctuation import (
    descent_joint_table,
    stay_series,
)
from .laws import (
    HypothesisReport,
    LatticeLaw,
    Regime,
    TiltInfo,
    check_hypotheses,
    law_from_masses,
    load_law,
    mgf,
    minimize_mgf,
    moments,
    tilt,
)
from .montecarlo import Estimate, SimConfig, SimResult, estimate_nu, simulate
from .reflection import (
    ExcursionColumn,
    ReflectionCore,
    build_reflection_core,
    dominant_eigenvalue,
    e_value,
    r_row_at_s,
)
from .wiener_hopf import (
    FactorPair,
    LadderSystem,
    SlopeTable,
    factorize_at,
    ladder_laws,
    richardson_slope,
    roots_z_pm,
    slopes,
)
