"""maldist: exact witnesses and envelope bounds for irregular distribution
of subsequences mod 1.

Everything computes in arbitrary-precision rational arithmetic; claims about
constructed points and sequences ship as self-contained certificates that
re-verify from their echoed inputs.
"""

from .doubling import (
    BinaryPoint,
    OrbitHitReport,
    WindowDensity,
    doubling_orbit,
    doubling_period,
    five_sixth_check,
    invariance_defect,
    zero_block_density,
)
from .empirical import (
    ApproxPoint,
    CellPartition,
    CellStraddleError,
    CheckpointScan,
    EmpiricalMeasure,
    LimitMassReport,
    MeasureVector,
    Residues,
    checkpoint_scan,
    concat_measures,
    empirical_measure,
    enlarged_union_membership,
    max_checkpoint_fraction,
    mu_bar_estimate,
    mu_bar_report,
    scan_to_csv,
    star_discrepancy,
    window_defect,
)
from .envelope import (
    AdmissibilityReport,
    BlockSpec,
    CountingOracleReport,
    DominationResult,
    F_pi_eval,
    RatioMeasure,
    check_admissible,
    counting_oracle,
    envelope_dominates,
    pi_measure,
)
from .exact import (
    RationalParseError,
    decimal_str,
    format_rational,
    mod1,
    parse_rational,
)
from .rng import SplitMix64
from .subspace import (
    BruteForceResult,
    ExchangeFactsReport,
    ExtensionResult,
    ExtensionTarget,
    brute_force_extension,
    exchange_facts,
    greedy_extension,
    sample_uniform,
    validate_membership,
)
from .torus import (
    TorusInterval,
    interval_contains_interval,
    intervals_disjoint,
    mul_mod1,
    preimage_intervals,
)
from .witness import (
    AvoidanceResult,
    HistogramTarget,
    HistogramWitness,
    HitFrequencyWitness,
    MixingChain,
    MixingConfig,
    MixingConfigError,
    WitnessPlan,
    auto_plan,
    avoidance_sequence,
    histogram_witness,
    hit_frequency_witness,
    mixing_chain,
    zero_block_alpha,
)

__version__ = "0.1.0"
