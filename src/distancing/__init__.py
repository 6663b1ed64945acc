"""Business exposure to contact-limiting interventions.

A reproducible pipeline: classify occupations by their reliance on
face-to-face communication and physical proximity, aggregate to industry
and ZIP-level exposure shares, calibrate a communication cost model, and
compute the wage subsidies that would compensate businesses for a cap on
worker contacts.
"""

__version__ = "0.1.0"

from .calibrate import (
    CalibrationReport,
    CellFrame,
    CellRow,
    calibrate_cap,
    calibrate_epsilon,
    cell_parameters,
    optimal_contacts_grid,
    run_calibration,
)
from .counterfactual import (
    AggRow,
    CostCurves,
    compute_subsidies,
    cost_ratio_curves,
    location_table,
    overall,
    sector_table,
)
from .errors import (
    CalibrationError,
    ClassificationError,
    ConfigError,
    DistancingError,
    DomainError,
    IngestionError,
)
from .geo import (
    CbpColumns,
    Cells,
    Coded,
    NationalSizeDistribution,
    build_cells,
    location_exposure,
    lowess_curve,
    normalize_density,
    read_cbp_csv,
)
from .industries import (
    GROUPS,
    IndustryMix,
    MixResolver,
    build_mix,
    exclude_sectors,
    exclusion_prefixes,
    rank_industries,
)
from .model import (
    FirmParams,
    Intervention,
    Regime,
    compensating_subsidy,
    contacts_at_density,
    distancing_cost_ratio,
    optimal_contacts,
    preferred_regime,
    telecom_cost_ratio,
    unit_cost,
    unit_cost_at_density,
)
from .occupations import (
    ClassificationThresholds,
    ExposureFlags,
    OccupationProfile,
    classify_all,
    classify_customer,
    classify_presence,
    classify_teamwork,
    composite_index,
)
