"""The VariantSpec registry: contents, policies, and layer derivation.

The registry is the single source of truth for variant dispatch -- these
tests pin its contents (names, rho policies, communication models), the
helper views each layer consumes, and that the layers actually derive
from it: requests, presets, config rho resolution, and the CLI's
``--variant`` choices. The final test enforces the refactor's grep-clean
guarantee -- no hardcoded ``("approximate", "exact")`` membership tuple
survives anywhere in ``src/`` outside the registry module itself.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.api.presets import PRESETS, Preset
from repro.api.requests import AuditRequest, EnsembleRequest, SampleRequest
from repro.core.config import SamplerConfig
from repro.core.variants import (
    BROADCAST_BANDWIDTH,
    VARIANTS,
    VariantSpec,
    engine_variant_names,
    ensemble_variant_names,
    get_variant,
    sample_variant_names,
    variant_names,
)
from repro.errors import ConfigError

SRC = Path(__file__).resolve().parent.parent / "src"


class TestRegistryContents:
    def test_registered_names_and_order(self):
        assert variant_names() == (
            "approximate", "exact", "fastcover", "broadcast"
        )

    def test_specs_are_frozen(self):
        with pytest.raises(AttributeError):
            VARIANTS["approximate"].rho_policy = "full"

    def test_get_variant_unknown(self):
        with pytest.raises(ConfigError, match="unknown variant 'warp'"):
            get_variant("warp")

    def test_bandwidth_category_iff_broadcast_model(self):
        for spec in VARIANTS.values():
            if spec.comm_model == "broadcast":
                assert spec.bandwidth_category == BROADCAST_BANDWIDTH
            else:
                assert spec.bandwidth_category is None

    def test_view_helpers(self):
        assert sample_variant_names() == variant_names()
        assert ensemble_variant_names() == (
            "approximate", "exact", "broadcast"
        )
        assert engine_variant_names() == ("approximate", "exact", "broadcast")

    def test_broadcast_spec_shape(self):
        spec = get_variant("broadcast")
        assert spec.engine_driven and spec.ensemble
        assert not spec.exact_placement
        assert spec.rho_policy == "full"
        assert "Anari-Haqi" in spec.paper_ref


class TestRhoPolicies:
    def test_sqrt_policy(self):
        assert get_variant("approximate").resolve_rho(16) == 4
        assert get_variant("approximate").resolve_rho(17) == 4

    def test_cbrt_policy(self):
        assert get_variant("exact").resolve_rho(27) == 3
        assert get_variant("exact").resolve_rho(64) == 4

    def test_full_policy(self):
        assert get_variant("broadcast").resolve_rho(10) == 10
        assert get_variant("fastcover").resolve_rho(10) == 10

    @pytest.mark.parametrize("name", variant_names())
    def test_floor_of_two(self, name):
        assert get_variant(name).resolve_rho(2) == 2
        assert get_variant(name).resolve_rho(3) >= 2

    def test_config_resolve_rho_dispatches_through_registry(self):
        config = SamplerConfig()
        assert config.resolve_rho(64, variant="approximate") == 8
        assert config.resolve_rho(64, variant="exact") == 4
        assert config.resolve_rho(64, variant="broadcast") == 64
        # Explicit rho always wins over the policy.
        assert SamplerConfig(rho=5).resolve_rho(64, variant="broadcast") == 5
        # With no variant named, the approximate policy applies.
        assert config.resolve_rho(64) == 8
        with pytest.raises(ConfigError, match="unknown variant"):
            config.resolve_rho(64, variant="warp")


class TestLayersDeriveFromRegistry:
    def test_sample_request_accepts_every_variant(self):
        for name in sample_variant_names():
            assert SampleRequest(variant=name).variant == name
        with pytest.raises(ConfigError, match="unknown sample variant"):
            SampleRequest(variant="warp")

    def test_ensemble_request_tracks_ensemble_view(self):
        for name in ensemble_variant_names():
            assert EnsembleRequest(variant=name).variant == name
        with pytest.raises(ConfigError, match="unknown ensemble variant"):
            EnsembleRequest(variant="fastcover")

    def test_audit_request_tracks_ensemble_view(self):
        assert AuditRequest(variant="broadcast").variant == "broadcast"
        with pytest.raises(ConfigError, match="unknown audit variant"):
            AuditRequest(variant="fastcover")

    def test_presets_validate_their_variant_at_definition_time(self):
        with pytest.raises(ConfigError, match="unknown variant"):
            Preset("bad", "names a ghost", "warp", SamplerConfig())
        assert PRESETS["paper-broadcast"].variant == "broadcast"

    def test_cli_choices_follow_registry(self, capsys):
        from repro.cli import _make_parser

        parser = _make_parser()
        args = parser.parse_args(["sample", "--variant", "broadcast"])
        assert args.variant == "broadcast"
        args = parser.parse_args(["ensemble", "--variant", "broadcast"])
        assert args.variant == "broadcast"
        with pytest.raises(SystemExit):
            parser.parse_args(["ensemble", "--variant", "fastcover"])
        capsys.readouterr()  # swallow argparse's usage message

    def test_no_hardcoded_variant_tuples_outside_registry(self):
        """Grep-clean: the refactor left no literal membership pair."""
        pattern = re.compile(
            r"""\(\s*['"]approximate['"]\s*,\s*['"]exact['"]\s*[,)]"""
        )
        offenders = []
        for path in SRC.rglob("*.py"):
            if path.name == "variants.py" and path.parent.name == "core":
                continue
            if pattern.search(path.read_text()):
                offenders.append(str(path.relative_to(SRC)))
        assert not offenders, (
            f"hardcoded ('approximate', 'exact') tuple in {offenders}; "
            "derive variant sets from repro.core.variants instead"
        )


class TestNewVariantRegistration:
    def test_registering_a_variant_propagates_everywhere(self):
        """The refactor's point: one dict entry, every layer follows."""
        spec = VariantSpec(
            name="test-ghost",
            description="registration smoke test",
            paper_ref="none",
            rounds_formula="O(1)",
            rho_policy="sqrt",
            exact_placement=False,
            comm_model="unicast",
            bandwidth_category=None,
            engine_driven=True,
            ensemble=True,
        )
        VARIANTS[spec.name] = spec
        try:
            assert "test-ghost" in sample_variant_names()
            assert "test-ghost" in ensemble_variant_names()
            assert SampleRequest(variant="test-ghost").variant == "test-ghost"
            assert EnsembleRequest(variant="test-ghost").variant == (
                "test-ghost"
            )
            assert SamplerConfig().resolve_rho(100, variant="test-ghost") == 10
        finally:
            del VARIANTS[spec.name]
        with pytest.raises(ConfigError):
            SampleRequest(variant="test-ghost")
