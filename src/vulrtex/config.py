"""Resolved pipeline configuration: INI file, flag overrides, stable hash.

Precedence is flags over file over defaults. The only environment variable
the pipeline reads is the API credential named by llm.api_key_env_var; every
other knob lives in the config so runs are reproducible from the file alone.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .jsonl import dumps_sorted

DEFAULT_THETA_SIM = 0.7
DEFAULT_THETA_OUT = 0.55
DEFAULT_PROPORTION = 0.6
DEFAULT_WALKS = 4
DEFAULT_SEED = 17
DEFAULT_TEMPERATURE = 0.3
DEFAULT_MAX_DEPTH = 6
DEFAULT_MAX_NODES = 24
DEFAULT_BRANCH_LIMIT = 4


@dataclass
class LlmSection:
    backend: str = "stub"
    endpoint_url: str = ""
    model_name: str = ""
    api_key_env_var: str = "VULRTEX_API_KEY"
    stub_rules_path: str = ""
    stub_jitter: float = 0.0
    max_retries: int = 3
    deadline_seconds: float = 120.0
    temperature: float = DEFAULT_TEMPERATURE

    def validate(self) -> None:
        """Refuse the values with which every LLM call fails or no JSON
        request can carry."""
        if self.max_retries < 0:
            raise ConfigError(f"llm.max_retries must be at least 0, got {self.max_retries}")
        if not (math.isfinite(self.deadline_seconds) and self.deadline_seconds > 0):
            raise ConfigError("llm.deadline_seconds must be a finite number above 0, "
                              f"got {self.deadline_seconds}")
        if not (math.isfinite(self.stub_jitter) and self.stub_jitter >= 0):
            raise ConfigError("llm.stub_jitter must be a finite number at least 0, "
                              f"got {self.stub_jitter}")
        if not math.isfinite(self.temperature):
            raise ConfigError(f"llm.temperature must be a finite number, got {self.temperature}")


@dataclass
class ToolSection:
    scr_backend: str = "stub"
    code_backend: str = "stub"
    scr_fixtures_dir: str = ""
    scr_endpoint: str = ""
    code_endpoint: str = ""
    cache_dir: str = ""


@dataclass
class VaSection:
    path: str = ""


@dataclass
class PipelineConfig:
    theta_sim: float = DEFAULT_THETA_SIM
    theta_out: float = DEFAULT_THETA_OUT
    historical_proportion: float = DEFAULT_PROPORTION
    walks: int = DEFAULT_WALKS
    seed: int = DEFAULT_SEED
    runs: int = 1
    pr_interval: float = 0.05
    correction_enabled: bool = True
    inclusion_order: bool = True
    max_depth: int = DEFAULT_MAX_DEPTH
    max_nodes: int = DEFAULT_MAX_NODES
    branch_limit: int = DEFAULT_BRANCH_LIMIT
    corpus_path: str = ""
    db_path: str = "reasoning-db"
    llm: LlmSection = field(default_factory=LlmSection)
    tool: ToolSection = field(default_factory=ToolSection)
    va: VaSection = field(default_factory=VaSection)

    def validate(self) -> None:
        for name in ("theta_sim", "theta_out"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        # historical_proportion: split_corpus needs a historical and a target share
        for name in ("historical_proportion", "pr_interval"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {value}")
        if self.walks < 1:
            raise ConfigError("walks must be at least 1")
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        if self.max_depth < 1 or self.max_nodes < 1 or self.branch_limit < 1:
            raise ConfigError("reasoning budgets must be at least 1")
        if self.llm.backend not in ("stub", "http"):
            raise ConfigError(f"unknown llm backend {self.llm.backend!r}")
        self.llm.validate()
        for side in ("scr_backend", "code_backend"):
            if getattr(self.tool, side) not in ("stub", "http"):
                raise ConfigError(f"unknown tool backend {getattr(self.tool, side)!r}")
        for key, backend, endpoint in (
                ("llm.endpoint_url", self.llm.backend, self.llm.endpoint_url),
                ("tool.scr_endpoint", self.tool.scr_backend, self.tool.scr_endpoint),
                ("tool.code_endpoint", self.tool.code_backend, self.tool.code_endpoint)):
            if backend == "http" and not endpoint.strip():
                raise ConfigError(f"an http backend needs {key}, which is empty")

    def resolved_dict(self) -> dict:
        return asdict(self)


_SECTION_FIELDS = {
    "llm": LlmSection,
    "tool": ToolSection,
    "va": VaSection,
}

# keys that define the identity of a run's outputs; output locations and
# presentation knobs (paths, pr_interval) deliberately stay out
_HASH_KEYS = (
    "theta_sim", "theta_out", "historical_proportion", "walks", "seed", "runs",
    "correction_enabled", "inclusion_order", "max_depth", "max_nodes",
    "branch_limit", "corpus_path", "llm", "tool", "va",
)


def _coerce(raw: str, target_type: type):
    if target_type is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    return target_type(raw)


def load_config(path: str | Path | None = None) -> PipelineConfig:
    """Defaults, overlaid with the INI file when one is given."""
    cfg = PipelineConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise ConfigError(f"config file not found: {path}")
    try:
        if parser.has_section("pipeline"):
            known = {f.name for f in fields(PipelineConfig)} - set(_SECTION_FIELDS)
            for name, raw in parser.items("pipeline"):
                if name not in known:
                    raise ConfigError(f"unknown pipeline option {name!r}")
                setattr(cfg, name, _coerce(raw, type(getattr(cfg, name))))
        for section, cls in _SECTION_FIELDS.items():
            if not parser.has_section(section):
                continue
            target = getattr(cfg, section)
            known = {f.name for f in fields(cls)}
            for name, raw in parser.items(section):
                if name not in known:
                    raise ConfigError(f"unknown {section} option {name!r}")
                setattr(target, name, _coerce(raw, type(getattr(target, name))))
    except ValueError as exc:
        raise ConfigError(f"bad value in {path}: {exc}") from exc
    unknown = [s for s in parser.sections() if s not in ("pipeline", *_SECTION_FIELDS)]
    if unknown:
        raise ConfigError(f"unknown config sections: {unknown}")
    return cfg


def apply_overrides(cfg: PipelineConfig, overrides: dict) -> PipelineConfig:
    """Flag values win over the file; a None value is a flag not given.

    The keys are the CLI's flags, which set top-level pipeline fields only;
    a section's fields are set in the config file. An unknown key, or a
    section's name, raises ConfigError."""
    for key, value in overrides.items():
        if value is None:
            continue
        if not hasattr(cfg, key) or key in _SECTION_FIELDS:
            raise ConfigError(f"unknown config key {key}")
        setattr(cfg, key, value)
    return cfg


def config_hash(cfg: PipelineConfig) -> str:
    """Short stable digest of the run-identity subset of the config."""
    full = cfg.resolved_dict()
    core = {k: full[k] for k in _HASH_KEYS}
    payload = dumps_sorted(core)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def check_artifact_hash(artifact_hash: str | None, cfg: PipelineConfig,
                        artifact_name: str) -> None:
    """An artifact built under a different core config cannot be reused, nor
    one without a hash: every writer stamps its artifact's."""
    current = config_hash(cfg)
    if artifact_hash != current:
        built = "no config hash" if artifact_hash is None else f"config {artifact_hash}"
        raise ConfigError(f"{artifact_name} was built with {built}, "
                          f"current config is {current}; refusing to mix runs")
