"""Fixtures that more than one test module reads."""

import pytest

from odup.pipeline import ExperimentConfig, run_simulate


@pytest.fixture(scope="session")
def calm_adaptive_run(tmp_path_factory):
    """(config, result) of one drift-free run at ratio_mode = adaptive,
    trained once for criterion 8 and the calm arm of TestSimulate's drift
    test. Incremental retraining jitters the table even without drift, so
    the skip threshold sits above that jitter (and far below drifted MMD)."""
    cfg = ExperimentConfig(
        data="synth", slices="2:1:1", synth_vocab=120, synth_sessions=2000,
        synth_drift=0.0, synth_clusters=6, d=16, rec_epochs=16, n=4, k=8,
        codec_epochs=60, codec_batch=64, strategy="queue", ratio_mode="adaptive",
        skip_threshold=0.0015, mmd_samples=0, seed=11, timing="zero",
        out=str(tmp_path_factory.mktemp("calm") / "adaptive"),
    )
    return cfg, run_simulate(cfg)
