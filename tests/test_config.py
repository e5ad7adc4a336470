"""Tests for SamplerConfig resolution and validation."""

from __future__ import annotations

import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core import SamplerConfig
from repro.errors import ConfigError

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# Each test-oracle alternate and the one module allowed to define it.
ORACLE_HOMES = {
    "sample_matching_exact": "matching/sampler.py",
    "sample_matching_mcmc": "matching/sampler.py",
    "schur_via_qr_product": "linalg/schur.py",
    "shortcut_via_power_iteration": "linalg/shortcut.py",
}


class TestValidation:
    def test_defaults_valid(self):
        SamplerConfig()

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, 2.0])
    def test_bad_epsilon(self, epsilon):
        with pytest.raises(ConfigError):
            SamplerConfig(epsilon=epsilon)

    def test_bad_rho(self):
        with pytest.raises(ConfigError):
            SamplerConfig(rho=1)

    @pytest.mark.parametrize("ell", [3, 6, 1])
    def test_non_power_of_two_ell(self, ell):
        with pytest.raises(ConfigError):
            SamplerConfig(ell=ell)

    def test_bad_policies(self):
        with pytest.raises(ConfigError):
            SamplerConfig(on_failure="retry")

    def test_bad_precision(self):
        with pytest.raises(ConfigError):
            SamplerConfig(precision_bits=4)

    def test_bad_max_extensions(self):
        with pytest.raises(ConfigError):
            SamplerConfig(max_extensions=0)

    def test_frozen(self):
        config = SamplerConfig()
        with pytest.raises(AttributeError):
            config.epsilon = 0.5


class TestResolution:
    def test_rho_sqrt_default(self):
        config = SamplerConfig()
        assert config.resolve_rho(100) == 10
        assert config.resolve_rho(101) == 10
        assert config.resolve_rho(4) == 2

    def test_rho_cbrt_for_exact(self):
        config = SamplerConfig()
        assert config.resolve_rho(64, variant="exact") == 4
        assert config.resolve_rho(1000, variant="exact") == 10

    def test_rho_never_below_two(self):
        config = SamplerConfig()
        assert config.resolve_rho(2) == 2
        assert config.resolve_rho(3, variant="exact") == 2

    def test_rho_override(self):
        assert SamplerConfig(rho=7).resolve_rho(1000) == 7

    def test_ell_paper_default(self):
        config = SamplerConfig(epsilon=1e-3)
        ell = config.resolve_ell(16)
        assert ell & (ell - 1) == 0
        assert ell >= 16**3

    def test_ell_override(self):
        assert SamplerConfig(ell=1 << 10).resolve_ell(100) == 1 << 10

    def test_normalizer_floor(self):
        config = SamplerConfig(normalizer_floor_exponent=3.0)
        assert config.normalizer_floor(10) == pytest.approx(1e-3)
        assert SamplerConfig().normalizer_floor(10) == pytest.approx(
            10.0 ** -40
        )


class TestOneAlgorithmPerStep:
    """Each Outline 3 step has one production path; alternates are oracles."""

    def test_field_count_ratchet(self):
        assert len(fields(SamplerConfig)) <= 18

    def test_retired_selectors_rejected(self):
        for name in ("matching_method", "mcmc_steps", "schur_method",
                     "shortcut_method", "placement_mode", "rng_contract"):
            with pytest.raises(TypeError):
                SamplerConfig(**{name: None})

    def test_reference_engine_confined_to_runner(self):
        """Grep-clean: the planless walk oracle is defined in
        engine/runner.py, named by no other library module (package
        ``__init__`` files included), and exported from neither
        ``repro.engine`` nor ``repro``."""
        import repro
        import repro.engine

        offenders = [
            path.relative_to(SRC).as_posix()
            for path in SRC.rglob("*.py")
            if re.search(r"\bReferenceEngine\b", path.read_text())
        ]
        assert offenders == ["engine/runner.py"], offenders
        assert not hasattr(repro, "ReferenceEngine")
        assert not hasattr(repro.engine, "ReferenceEngine")

    def test_oracles_referenced_only_where_defined(self):
        """Grep-clean: no library module selects an oracle alternate."""
        pattern = re.compile(r"\b(" + "|".join(ORACLE_HOMES) + r")\b")
        offenders = []
        for path in SRC.rglob("*.py"):
            relative = path.relative_to(SRC).as_posix()
            if path.name == "__init__.py":
                continue
            for name in set(pattern.findall(path.read_text())):
                if ORACLE_HOMES[name] != relative:
                    offenders.append(f"{relative}: {name}")
        assert not offenders, (
            f"test-oracle alternates referenced from {sorted(offenders)}; "
            "production runs one algorithm per step"
        )
