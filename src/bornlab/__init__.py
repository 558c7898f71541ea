"""bornlab: a desk-scale laboratory for probability in quantum mechanics.

Modules cover the finite-dimensional Hilbert kernel (states, projectors,
coarse-grainings and the Born rule), the coarse-graining derivation of
Born weights, stochastic collapse dynamics, history-consistency checks,
the quantum-game value calculus, exact law-of-large-numbers tails and the
no-go constructions, all driven by a scenario CLI.  The independent
oracles that check them live with the tests.
"""

__version__ = "0.1.0"

from .collapse import (  # noqa: F401
    CollapseModel,
    Trajectory,
    ensemble_outcomes,
    martingale_check,
    simulate,
)
from .emergence import (  # noqa: F401
    MassProfile,
    RationalState,
    born_limit,
    equiprobable_values,
    measure_uniqueness_solve,
    rational_born_values,
)
from .games import (  # noqa: F401
    Game,
    Relabeling,
    derive_pivotal,
    linear_payoff,
    relabel_game,
    transform_game,
    value_solve,
)
from .hilbert import (  # noqa: F401
    CoarseGraining,
    GrainingFamily,
    MeasureTable,
    Projector,
    SeparatingSet,
    StateVector,
    SymmetryUnitary,
    born_weight,
    permutation_unitary,
)
from .histories import (  # noqa: F401
    HistorySet,
    HistoryStep,
    consistency_check,
)
from .lln import (  # noqa: F401
    frequency_audit,
    lln_limit_scan,
    lln_tail,
    lln_tail_exact,
    tail_work,
)
from .nogo import (  # noqa: F401
    PMSystem,
    RaySet,
    dispersion_free_search,
    propagate_pm_constraint,
    rotation_jump_demo,
    separation_check,
)
