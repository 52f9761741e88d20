"""The machine registry: lookup, construction, and completeness."""

import numpy as np
import pytest

from repro import machines
from repro.engines.extensible import ExtensibleSerialEngine
from repro.engines.partitioned import PartitionedEngine
from repro.engines.pipeline import SerialPipelineEngine
from repro.engines.streaming_core import StreamingEngineCore
from repro.engines.wide_serial import WideSerialEngine
from repro.lgca.flows import uniform_random_state
from repro.lgca.hpp import HPPModel
from repro.util.errors import ConfigError

ROWS, COLS, GENS = 16, 16, 3


def _model():
    return HPPModel(ROWS, COLS, boundary="null")


def _frame(seed=7):
    return uniform_random_state(ROWS, COLS, 4, 0.3, np.random.default_rng(seed))


#: direct-construction twin of every registered machine, used to prove
#: the registry path is purely a lookup, not a behavioral layer.
DIRECT = {
    "serial": lambda model: SerialPipelineEngine(model, pipeline_depth=2),
    "wsa": lambda model: WideSerialEngine(model, lanes=2, pipeline_depth=2),
    "spa": lambda model: PartitionedEngine(model, slice_width=8, pipeline_depth=2),
    "wsa-e": lambda model: ExtensibleSerialEngine(model, pipeline_depth=2),
}

PARAMS = {
    "serial": {"pipeline_depth": 2},
    "wsa": {"lanes": 2, "pipeline_depth": 2},
    "spa": {"slice_width": 8, "pipeline_depth": 2},
    "wsa-e": {"pipeline_depth": 2},
}


class TestLookup:
    def test_names_in_registration_order(self):
        assert machines.names() == ["serial", "wsa", "spa", "wsa-e"]

    def test_get_returns_spec_with_matching_name(self):
        for name in machines.names():
            assert machines.get(name).name == name

    def test_unknown_machine_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown machine 'cray'"):
            machines.get("cray")

    def test_unknown_machine_error_lists_registry(self):
        with pytest.raises(ConfigError, match="serial, wsa, spa, wsa-e"):
            machines.get("nope")

    def test_duplicate_registration_rejected(self):
        spec = machines.get("serial")
        with pytest.raises(ConfigError, match="already registered"):
            machines.register(spec)


class TestCreate:
    def test_create_builds_the_registered_engine_class(self):
        model = _model()
        for spec in machines.specs():
            engine = spec.create(model)
            assert type(engine) is spec.engine_cls
            assert isinstance(engine, StreamingEngineCore)

    def test_unknown_parameter_is_config_error_naming_the_machine(self):
        with pytest.raises(
            ConfigError, match="machine 'serial' does not accept parameter"
        ):
            machines.create("serial", _model(), warp_factor=9)

    def test_unknown_parameter_error_lists_accepted(self):
        with pytest.raises(ConfigError, match="accepted:.*pipeline_depth"):
            machines.create("wsa", _model(), warp_factor=9)

    def test_every_machine_rejects_unknown_parameters_uniformly(self):
        for name in machines.names():
            with pytest.raises(ConfigError, match=f"machine {name!r}"):
                machines.create(name, _model(), bogus=1)

    def test_caller_params_override_defaults(self):
        engine = machines.create("spa", _model(), slice_width=4)
        assert engine.slice_width == 4

    def test_spa_default_slice_width_applied(self):
        engine = machines.create("spa", _model())
        assert engine.slice_width == 8


class TestRoundTrip:
    """Registry-constructed engines are bit-for-bit the direct ones."""

    @pytest.mark.parametrize("name", ["serial", "wsa", "spa", "wsa-e"])
    def test_stats_and_frames_match_direct_construction(self, name):
        model = _model()
        frame = _frame()
        via_registry = machines.create(name, model, **PARAMS[name])
        direct = DIRECT[name](model)
        out_reg, stats_reg = via_registry.run(frame.copy(), GENS)
        out_dir, stats_dir = direct.run(frame.copy(), GENS)
        np.testing.assert_array_equal(out_reg, out_dir)
        assert stats_reg == stats_dir

    def test_all_machines_agree_on_the_evolution(self):
        model = _model()
        frame = _frame()
        outputs = [
            machines.create(name, model, **PARAMS[name]).run(frame.copy(), GENS)[0]
            for name in machines.names()
        ]
        for other in outputs[1:]:
            np.testing.assert_array_equal(outputs[0], other)


class TestCapabilities:
    def test_tickwise_flag_matches_engine_class(self):
        for spec in machines.specs():
            assert spec.capabilities.tickwise == spec.engine_cls.supports_tickwise

    def test_side_channel_and_degradable_only_on_spa(self):
        flags = {
            spec.name: (spec.capabilities.side_channel, spec.capabilities.degradable)
            for spec in machines.specs()
        }
        assert flags["spa"] == (True, True)
        for name in ("serial", "wsa", "wsa-e"):
            assert flags[name] == (False, False)


class TestCompleteness:
    def test_builtin_catalog_is_complete(self):
        assert machines.unregistered_engines() == []

    def test_unregistered_engine_is_detected(self, monkeypatch):
        import repro.engines as engines_pkg

        class RogueEngine(SerialPipelineEngine):
            pass

        monkeypatch.setattr(engines_pkg, "RogueEngine", RogueEngine, raising=False)
        monkeypatch.setattr(
            engines_pkg, "__all__", [*engines_pkg.__all__, "RogueEngine"]
        )
        assert machines.unregistered_engines() == ["RogueEngine"]


class TestDescribe:
    def test_payload_is_schema_versioned(self):
        for spec in machines.specs():
            payload = spec.describe()
            assert payload["schema"] == machines.SCHEMA_NAME == "repro-machine"
            assert payload["version"] == machines.SCHEMA_VERSION == 2

    def test_payload_shape(self):
        payload = machines.get("wsa").describe()
        assert payload["name"] == "wsa"
        assert payload["engine"] == "WideSerialEngine"
        assert set(payload["parameters"]) == {"accepted", "defaults"}
        assert "lanes" in payload["parameters"]["accepted"]
        assert set(payload["capabilities"]) == {
            "tickwise",
            "side_channel",
            "degradable",
        }
        assert payload["design"]  # non-empty design-model summary

    def test_payload_is_json_serializable(self):
        import json

        for spec in machines.specs():
            json.dumps(spec.describe(), sort_keys=True)
