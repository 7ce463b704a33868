"""Coalition formation games: construction, equilibria and stability.

Players simultaneously name the coalition structure they want (and
possibly an action inside it); a unanimity rule turns the joint wish
list into one realized structure, and payoffs follow. The package
enumerates the admissible structures under a coalition size cap,
builds the resulting finite games, finds pure and mixed equilibria
exactly where possible, and asks how far the cap can grow before a
given equilibrium stops making sense.
"""

from __future__ import annotations

from .analysis import (
    CooperationReport,
    EquilibriumPartitionSet,
    StabilityCheck,
    StabilityDiagnostic,
    StabilityReport,
    classify_stochastic,
    compare_domains,
    equilibrium_partitions,
    is_complete_cooperation,
    lift_profile,
    stability_K_star,
)
from .catalog import ALIASES, CATALOG, CatalogEntry, build_game, get_entry
from .gamefile import (
    GameFileError,
    game_from_dict,
    game_to_dict,
    load_game,
    load_profile,
    profile_from_dict,
    profile_to_dict,
    save_game,
)
from .games import (
    CoalitionGame,
    DomainDecomposition,
    Mechanism,
    Profile,
    Strategy,
    ValidationError,
    payoff_isomorphic,
    restrict_game,
)
from .partitions import (
    Coalition,
    CoalitionStructure,
    PartitionFamily,
    enumerate_partitions,
    is_nested,
    labelled_blocks,
    restricted_bell,
)
from .solver import (
    EquilibriumResult,
    MixedProfile,
    Solution,
    SolverConfig,
    SupportEnumeration,
    VerificationReport,
    best_response_value,
    expected_utilities,
    expected_utility,
    expected_utility_by_structure,
    first_pure_equilibrium,
    is_pure_equilibrium,
    mixed_nash_2p_support_enum,
    mixed_nash_iterative,
    pure_nash_enumerate,
    point_mass,
    solve,
    verify_epsilon_nash,
)

__version__ = "0.1.0"

__all__ = [
    "ALIASES",
    "CATALOG",
    "CatalogEntry",
    "Coalition",
    "CoalitionGame",
    "CoalitionStructure",
    "CooperationReport",
    "DomainDecomposition",
    "EquilibriumPartitionSet",
    "EquilibriumResult",
    "GameFileError",
    "Mechanism",
    "MixedProfile",
    "PartitionFamily",
    "Profile",
    "Solution",
    "SolverConfig",
    "StabilityCheck",
    "StabilityDiagnostic",
    "StabilityReport",
    "Strategy",
    "SupportEnumeration",
    "ValidationError",
    "VerificationReport",
    "best_response_value",
    "build_game",
    "classify_stochastic",
    "compare_domains",
    "enumerate_partitions",
    "equilibrium_partitions",
    "expected_utilities",
    "expected_utility",
    "expected_utility_by_structure",
    "first_pure_equilibrium",
    "game_from_dict",
    "game_to_dict",
    "get_entry",
    "is_complete_cooperation",
    "is_nested",
    "is_pure_equilibrium",
    "labelled_blocks",
    "lift_profile",
    "load_game",
    "load_profile",
    "mixed_nash_2p_support_enum",
    "mixed_nash_iterative",
    "payoff_isomorphic",
    "point_mass",
    "profile_from_dict",
    "profile_to_dict",
    "pure_nash_enumerate",
    "restrict_game",
    "restricted_bell",
    "save_game",
    "solve",
    "stability_K_star",
    "verify_epsilon_nash",
]
