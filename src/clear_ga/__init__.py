"""clear-ga: evolutionary optimization of the textual cues in vision-LLM prompts.

Searches over sets of cues (grouped into categories) to maximize the
accuracy of a black-box estimator on structured data-extraction tasks, with
fixed- and variable-length genetic encodings, noise-robust worst-of fitness
caching, checkpoint/resume, and ablation/consistency analysis tools.
"""

from .analysis import AblationReport, ConsistencyReport, ablate, consistency_probe, cv
from .backends import (
    EvaluationRequest,
    Evaluator,
    LlmEvaluator,
    OracleEvaluator,
    PlantedCue,
    PlantedLandscape,
    generate_schema,
)
from .dataset import BuildingRecord, load_manifest, split_records
from .engine import (
    EvolutionRun,
    FitnessLedger,
    GenerationStats,
    Mode,
    RunConfig,
    RunResult,
    evolve,
)
from .fitness import (
    DataEstimate,
    GroundTruth,
    HeatingClass,
    ValueRange,
    WindowClass,
    YearRange,
    aggregate_fitness,
)
from .items import building_error, row_scorer
from .schema import (
    CueCategory,
    CueSchema,
    DataItem,
    Genotype,
    canonical_key,
    load_schema,
    load_schema_file,
    random_genotype,
    render_cue_list,
    save_schema,
)

__version__ = "0.1.0"

__all__ = [
    "AblationReport",
    "BuildingRecord",
    "ConsistencyReport",
    "CueCategory",
    "CueSchema",
    "DataEstimate",
    "DataItem",
    "EvaluationRequest",
    "Evaluator",
    "EvolutionRun",
    "FitnessLedger",
    "GenerationStats",
    "Genotype",
    "GroundTruth",
    "HeatingClass",
    "LlmEvaluator",
    "Mode",
    "OracleEvaluator",
    "PlantedCue",
    "PlantedLandscape",
    "RunConfig",
    "RunResult",
    "ValueRange",
    "WindowClass",
    "YearRange",
    "ablate",
    "aggregate_fitness",
    "building_error",
    "canonical_key",
    "consistency_probe",
    "cv",
    "evolve",
    "generate_schema",
    "load_manifest",
    "load_schema",
    "load_schema_file",
    "random_genotype",
    "render_cue_list",
    "row_scorer",
    "save_schema",
    "split_records",
    "__version__",
]
