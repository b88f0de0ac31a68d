import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from sste.experiment import RunConfig  # noqa: E402


@pytest.fixture
def tiny_config(tmp_path):
    """A seconds-long sste run on a small synthetic world."""
    return RunConfig(
        n_users=40, n_items=15, latent_dim=3, train_impressions=800, test_impressions=400,
        objective="sste", epsilon_train=(0.5,), epsilon_val=(0.3,),
        resample_each_epoch=True, max_epochs=2, patience=2, seed=3, data_seed=3,
        out_dir=str(tmp_path / "runs"),
    )
