"""Configuration loading, overrides, validation, and the artifact hash."""

import math
import re

import pytest

from vulrtex.config import (PipelineConfig, apply_overrides, check_artifact_hash,
                            config_hash, load_config)
from vulrtex.errors import ConfigError


def write_ini(tmp_path, body):
    path = tmp_path / "config.ini"
    path.write_text(body, encoding="utf-8")
    return path


def set_field(cfg, key, value):
    """Set the section field a "section.field" key names, as the config
    file's [section] would."""
    section, name = key.split(".")
    setattr(getattr(cfg, section), name, value)


class TestDefaults:
    def test_documented_defaults(self):
        cfg = PipelineConfig()
        assert cfg.theta_sim == 0.7
        assert cfg.theta_out == 0.55
        assert cfg.historical_proportion == 0.6
        assert cfg.walks == 4
        assert cfg.seed == 17
        assert cfg.runs == 1
        assert cfg.correction_enabled is True
        assert cfg.inclusion_order is True
        assert (cfg.max_depth, cfg.max_nodes, cfg.branch_limit) == (6, 24, 4)
        assert cfg.llm.backend == "stub"
        assert cfg.llm.api_key_env_var == "VULRTEX_API_KEY"
        cfg.validate()

    def test_no_file_gives_defaults(self):
        assert load_config(None) == PipelineConfig()


class TestLoadConfig:
    def test_sections_round_trip(self, tmp_path):
        cfg = load_config(write_ini(tmp_path, """
[pipeline]
theta_sim = 0.4
walks = 9
seed = 3
correction_enabled = off
corpus_path = corpus.jsonl

[llm]
backend = http
endpoint_url = https://llm.example/v1
temperature = 0.1

[tool]
scr_backend = http
scr_endpoint = https://ocr.example

[va]
path = store.jsonl
"""))
        assert cfg.theta_sim == 0.4
        assert cfg.walks == 9
        assert cfg.seed == 3
        assert cfg.correction_enabled is False
        assert cfg.corpus_path == "corpus.jsonl"
        assert cfg.llm.backend == "http"
        assert cfg.llm.endpoint_url == "https://llm.example/v1"
        assert cfg.llm.temperature == 0.1
        assert cfg.tool.scr_backend == "http"
        assert cfg.va.path == "store.jsonl"
        # untouched options keep their defaults
        assert cfg.theta_out == 0.55
        assert cfg.tool.code_backend == "stub"

    def test_boolean_spellings(self, tmp_path):
        cfg = load_config(write_ini(tmp_path, "[pipeline]\ninclusion_order = no\n"))
        assert cfg.inclusion_order is False
        cfg = load_config(write_ini(tmp_path, "[pipeline]\ninclusion_order = 1\n"))
        assert cfg.inclusion_order is True

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini")

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config sections"):
            load_config(write_ini(tmp_path, "[surprise]\nkey = 1\n"))

    def test_unknown_pipeline_option(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown pipeline option"):
            load_config(write_ini(tmp_path, "[pipeline]\nthetasim = 0.5\n"))

    def test_unknown_section_option(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown llm option"):
            load_config(write_ini(tmp_path, "[llm]\nmodel = x\n"))
        with pytest.raises(ConfigError, match="unknown llm option"):
            load_config(write_ini(tmp_path, "[llm]\nconcurrency_limit = 4\n"))

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value"):
            load_config(write_ini(tmp_path, "[pipeline]\nwalks = soon\n"))
        with pytest.raises(ConfigError, match="bad value"):
            load_config(write_ini(tmp_path, "[pipeline]\ncorrection_enabled = maybe\n"))

    def test_section_names_not_pipeline_options(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown pipeline option"):
            load_config(write_ini(tmp_path, "[pipeline]\nllm = stub\n"))


class TestOverrides:
    def test_flags_win_over_file(self, tmp_path):
        cfg = load_config(write_ini(tmp_path, "[pipeline]\nseed = 3\nwalks = 9\n"))
        apply_overrides(cfg, {"seed": 42, "walks": None})
        assert cfg.seed == 42
        assert cfg.walks == 9

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            apply_overrides(PipelineConfig(), {"depth": 3})
        with pytest.raises(ConfigError, match="unknown config key"):
            apply_overrides(PipelineConfig(), {"llm.model": "x"})
        # no flag sets a section's field, so a section.field key is unknown
        with pytest.raises(ConfigError, match="unknown config key"):
            apply_overrides(PipelineConfig(), {"llm.stub_jitter": 0.25})
        with pytest.raises(ConfigError, match="unknown config key"):
            apply_overrides(PipelineConfig(), {"llm": "stub"})


class TestValidate:
    @pytest.mark.parametrize("field,value", [
        ("theta_sim", 1.5), ("theta_out", -0.1), ("historical_proportion", 2.0),
        ("pr_interval", 0.0), ("pr_interval", 1.0),
        ("walks", 0), ("runs", 0), ("max_depth", 0), ("max_nodes", 0),
        ("branch_limit", 0),
    ])
    def test_out_of_range(self, field, value):
        cfg = PipelineConfig()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError):
            cfg.validate()

    # split_corpus refuses both ends, so the check must name the key first
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_historical_proportion_at_either_end_is_refused(self, value):
        cfg = PipelineConfig(historical_proportion=value)
        with pytest.raises(ConfigError, match=r"historical_proportion must be in \(0, 1\)"):
            cfg.validate()

    # each of these made every LLM call fail, or every prediction unscored,
    # or put NaN (not JSON) into an HTTP body; -0.5 jitter acted as 0
    @pytest.mark.parametrize("key, value", [
        ("llm.max_retries", -1), ("llm.deadline_seconds", 0.0),
        ("llm.deadline_seconds", math.inf), ("llm.deadline_seconds", math.nan),
        ("llm.stub_jitter", math.inf), ("llm.stub_jitter", -0.5),
        ("llm.stub_jitter", math.nan), ("llm.temperature", math.nan),
        ("llm.temperature", -math.inf),
    ])
    def test_llm_values_every_call_fails_on_are_refused(self, key, value):
        cfg = PipelineConfig()
        set_field(cfg, key, value)
        with pytest.raises(ConfigError, match=re.escape(key)):
            cfg.validate()

    def test_llm_bounds_are_allowed(self):
        cfg = PipelineConfig()
        cfg.llm.max_retries = 0
        cfg.llm.deadline_seconds = 1e-3
        cfg.llm.stub_jitter = 0.0
        cfg.llm.temperature = 0.0
        cfg.validate()

    def test_unknown_backends(self):
        cfg = PipelineConfig()
        cfg.llm.backend = "psychic"
        with pytest.raises(ConfigError, match="llm backend"):
            cfg.validate()
        cfg = PipelineConfig()
        cfg.tool.code_backend = "psychic"
        with pytest.raises(ConfigError, match="tool backend"):
            cfg.validate()

    @pytest.mark.parametrize("backend, endpoint", [
        ("llm.backend", "llm.endpoint_url"),
        ("tool.scr_backend", "tool.scr_endpoint"),
        ("tool.code_backend", "tool.code_endpoint"),
    ])
    def test_http_backend_needs_an_endpoint(self, backend, endpoint):
        cfg = PipelineConfig()
        set_field(cfg, backend, "http")
        with pytest.raises(ConfigError, match=f"needs {endpoint}, which is empty"):
            cfg.validate()
        set_field(cfg, endpoint, "  ")
        with pytest.raises(ConfigError, match=endpoint):
            cfg.validate()
        set_field(cfg, endpoint, "http://backend.invalid/v1")
        cfg.validate()


class TestConfigHash:
    def test_stable_and_short(self):
        h1 = config_hash(PipelineConfig())
        h2 = config_hash(PipelineConfig())
        assert h1 == h2
        assert len(h1) == 16
        int(h1, 16)

    def test_default_hash_pinned(self):
        # the defaults are part of every run's identity; moving where one is
        # defined must not move the hash
        assert config_hash(PipelineConfig()) == "0e1057cc7b4e59c9"

    def test_identity_keys_change_hash(self):
        base = config_hash(PipelineConfig())
        for key, value in [("seed", 18), ("theta_sim", 0.71), ("runs", 2),
                           ("corpus_path", "other.jsonl"),
                           ("inclusion_order", False)]:
            cfg = PipelineConfig()
            setattr(cfg, key, value)
            assert config_hash(cfg) != base, key

    def test_section_contents_change_hash(self):
        base = config_hash(PipelineConfig())
        cfg = PipelineConfig()
        cfg.llm.stub_rules_path = "rules.jsonl"
        assert config_hash(cfg) != base
        cfg = PipelineConfig()
        cfg.va.path = "store.jsonl"
        assert config_hash(cfg) != base

    def test_output_knobs_do_not_change_hash(self):
        base = config_hash(PipelineConfig())
        cfg = PipelineConfig()
        cfg.db_path = "elsewhere"
        cfg.pr_interval = 0.1
        assert config_hash(cfg) == base


class TestArtifactHash:
    def test_matching_and_absent_pass(self):
        cfg = PipelineConfig()
        check_artifact_hash(config_hash(cfg), cfg, "db")
        check_artifact_hash(None, cfg, "db")

    def test_mismatch_refused(self):
        cfg = PipelineConfig()
        with pytest.raises(ConfigError, match="refusing to mix"):
            check_artifact_hash("0" * 16, cfg, "db")
