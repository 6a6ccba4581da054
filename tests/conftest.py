import numpy as np
import pytest

from griduq.data import NoiseProfile, generate_synthetic, region_synthetic
from griduq.train import TrainConfig, train_all_seeds


@pytest.fixture(scope="session")
def tiny_region():
    return region_synthetic(h=16, w=16)


@pytest.fixture(scope="session")
def tiny_samples(tiny_region):
    """24 days of 28-channel 16x16 synthetic data, reused read-only."""
    samples, params = generate_synthetic(
        tiny_region, n_days=24, channels=28,
        noise_profile=NoiseProfile("homoscedastic", 2.0),
        station_density=0.3, seed=5,
    )
    return samples, params


def _train_tiny(uq, samples, out_dir, seeds):
    config = TrainConfig(uq_method=uq, epochs=3, lr=3e-3, dropout_rate=0.1,
                         batch_size=8, seeds=seeds, alpha=0.1, t_passes=4,
                         base_width=4, depth=1)
    _, failures = train_all_seeds(config, samples, out_dir, deterministic=True)
    assert failures == [], failures
    return out_dir


@pytest.fixture(scope="session")
def mcd_runs(tiny_samples, tmp_path_factory):
    """Briefly trained 2-seed MC-dropout runs directory."""
    samples, _ = tiny_samples
    return _train_tiny("mcd", samples, tmp_path_factory.mktemp("mcd_runs"), (0, 1))


@pytest.fixture(scope="session")
def cqr_runs(tiny_samples, tmp_path_factory):
    """Briefly trained 2-seed conformal-quantile runs directory."""
    samples, _ = tiny_samples
    return _train_tiny("cqr", samples, tmp_path_factory.mktemp("cqr_runs"), (0, 1))


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
