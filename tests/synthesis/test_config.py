"""Unit tests for the synthesis configuration."""

import pytest

from repro.errors import SynthesisError
from repro.synthesis.config import RETIRED_KEYS, DvsMethod, SynthesisConfig


class TestDefaults:
    def test_probability_aware_by_default(self):
        config = SynthesisConfig()
        assert config.use_probabilities
        assert config.dvs is DvsMethod.NONE

    def test_paper_shutdown_rate(self):
        assert SynthesisConfig().shutdown_mutation_rate == 0.02


class TestValidation:
    def test_population_too_small(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(population_size=1)

    def test_generations_positive(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(max_generations=0)

    @pytest.mark.parametrize("pressure", [0.9, 2.1])
    def test_selection_pressure_range(self, pressure):
        with pytest.raises(SynthesisError):
            SynthesisConfig(selection_pressure=pressure)

    def test_tournament_positive(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(tournament_size=0)

    @pytest.mark.parametrize("rate", [-0.1, 1.1])
    def test_crossover_rate_range(self, rate):
        with pytest.raises(SynthesisError):
            SynthesisConfig(crossover_rate=rate)

    def test_mutation_rate_range(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(per_gene_mutation_rate=1.5)
        assert SynthesisConfig(per_gene_mutation_rate=None)

    def test_elite_count_range(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(population_size=10, elite_count=10)
        with pytest.raises(SynthesisError):
            SynthesisConfig(elite_count=-1)

    def test_weights_non_negative(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(area_weight=-1.0)
        with pytest.raises(SynthesisError):
            SynthesisConfig(transition_weight=-1.0)
        with pytest.raises(SynthesisError):
            SynthesisConfig(timing_weight=-1.0)

    def test_repair_fraction_range(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(repair_fraction=0.0)


class TestPoolFailureMode:
    def test_default_is_fallback(self):
        assert SynthesisConfig().pool_failure_mode == "fallback"

    def test_invalid_mode_rejected(self):
        with pytest.raises(SynthesisError, match="pool failure mode"):
            SynthesisConfig(pool_failure_mode="explode")


class TestSerialisation:
    def test_round_trip(self):
        config = SynthesisConfig(
            population_size=24,
            dvs=DvsMethod.GRADIENT,
            use_probabilities=False,
            per_gene_mutation_rate=0.05,
            seed=9,
            jobs=2,
            pool_failure_mode="raise",
        )
        data = config.to_dict()
        assert data["dvs"] == "gradient"  # enum serialised by value
        restored = SynthesisConfig.from_dict(data)
        assert restored == config
        assert restored.dvs is DvsMethod.GRADIENT

    def test_default_round_trip(self):
        config = SynthesisConfig()
        assert SynthesisConfig.from_dict(config.to_dict()) == config

    def test_mode_cache_fields_round_trip(self):
        # Records written before the switches were removed still load:
        # the retired keys are dropped, everything else is kept.
        config = SynthesisConfig(population_size=24, seed=5)
        data = config.to_dict()
        data.update(decode_cache=False, mode_cache=False, mode_cache_size=64)
        assert SynthesisConfig.from_dict(data) == config

    def test_mode_cache_defaults_serialised(self):
        data = SynthesisConfig().to_dict()
        assert "decode_cache" not in data
        assert "mode_cache" not in data
        assert "mode_cache_size" not in data

    def test_vector_dvs_fields_round_trip(self):
        config = SynthesisConfig(dvs=DvsMethod.GRADIENT)
        for vector, warm in ((False, False), (True, True), (False, True)):
            data = config.to_dict()
            data.update(vector_dvs=vector, dvs_warm_start=warm)
            assert SynthesisConfig.from_dict(data) == config

    def test_vector_dvs_defaults_serialised(self):
        data = SynthesisConfig().to_dict()
        assert "vector_dvs" not in data
        assert "dvs_warm_start" not in data
        assert set(data).isdisjoint(RETIRED_KEYS)

    def test_speculation_fields_round_trip(self):
        # The pool-strategy switches are retired: records that carry
        # them load, the keys are dropped, everything else is kept.
        config = SynthesisConfig(jobs=2, seed=4)
        for async_pool, speculative, depth in (
            (True, True, 1),
            (False, False, 3),
        ):
            data = config.to_dict()
            data.update(
                async_pool=async_pool,
                speculative=speculative,
                speculation_depth=depth,
            )
            assert SynthesisConfig.from_dict(data) == config

    def test_speculation_defaults_serialised(self):
        data = SynthesisConfig().to_dict()
        for key in ("async_pool", "speculative", "speculation_depth"):
            assert key not in data
            assert key in RETIRED_KEYS

    def test_speculation_depth_validated(self):
        # No longer a field: a stored value is not validated, only
        # dropped, and the constructor rejects it outright.
        with pytest.raises(TypeError):
            SynthesisConfig(speculation_depth=0)
        data = SynthesisConfig().to_dict()
        data["speculation_depth"] = -2
        assert SynthesisConfig.from_dict(data) == SynthesisConfig()

    def test_unknown_keys_rejected(self):
        data = SynthesisConfig().to_dict()
        data["poplation_size"] = 10  # typo must not pass silently
        with pytest.raises(SynthesisError, match="poplation_size"):
            SynthesisConfig.from_dict(data)

    def test_retired_keys_are_not_config_arguments(self):
        # Dropping happens on load only; the fields themselves are gone.
        for key in sorted(RETIRED_KEYS):
            with pytest.raises(TypeError):
                SynthesisConfig(**{key: True})

    def test_from_dict_validates(self):
        data = SynthesisConfig().to_dict()
        data["population_size"] = 1
        with pytest.raises(SynthesisError):
            SynthesisConfig.from_dict(data)

    def test_from_dict_accepts_dvs_string(self):
        data = SynthesisConfig().to_dict()
        data["dvs"] = "uniform"
        assert SynthesisConfig.from_dict(data).dvs is DvsMethod.UNIFORM
        data["dvs"] = "sawtooth"
        with pytest.raises(SynthesisError):
            SynthesisConfig.from_dict(data)


class TestWithUpdates:
    def test_returns_modified_copy(self):
        base = SynthesisConfig(seed=1)
        other = base.with_updates(seed=2, dvs=DvsMethod.GRADIENT)
        assert base.seed == 1
        assert other.seed == 2
        assert other.dvs is DvsMethod.GRADIENT
        assert other.population_size == base.population_size

    def test_updates_validated(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig().with_updates(population_size=0)
