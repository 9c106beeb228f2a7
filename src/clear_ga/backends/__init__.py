"""Evaluation backends: the planted-landscape oracle and the vision-LLM client."""

from .base import BackendHardFailure, EvaluationFailure, EvaluationRequest, Evaluator
from .llm import (
    AuthenticationError,
    FunctionTransport,
    HttpTransport,
    LlmEvaluator,
    Transport,
    TransportError,
)
from .oracle import (
    OracleEvaluator,
    PlantedCue,
    PlantedLandscape,
    landscape_digest,
    landscape_from_json_obj,
    landscape_to_json_obj,
    load_landscape_file,
)
from .schema_gen import SchemaGenerationError, generate_schema

__all__ = [
    "AuthenticationError",
    "BackendHardFailure",
    "EvaluationFailure",
    "EvaluationRequest",
    "Evaluator",
    "FunctionTransport",
    "HttpTransport",
    "LlmEvaluator",
    "OracleEvaluator",
    "PlantedCue",
    "PlantedLandscape",
    "SchemaGenerationError",
    "Transport",
    "TransportError",
    "generate_schema",
    "landscape_digest",
    "landscape_from_json_obj",
    "landscape_to_json_obj",
    "load_landscape_file",
]
