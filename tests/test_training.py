from dataclasses import asdict

import numpy as np
import pytest

from tvk.container import save_arrays
from tvk.geometry import Intrinsics
from tvk.network import NetConfig, TwoViewNet
from tvk.training import load_checkpoint, save_checkpoint

TINY = NetConfig(width=16, height=16, channels=(2, 4))
K_TINY = Intrinsics(fx=0.89, fy=1.19, cx=0.5, cy=0.5, width=16, height=16)
FIELDS = ("flow", "flow_confidence", "xi", "normals", "r", "t", "s",
          "refined_xi")


def predict_tiny(model):
    rng = np.random.default_rng(31)
    f = TINY.refine_factor
    img1, img2 = rng.uniform(size=(2, 16, 16, 3))
    full = rng.uniform(size=(16 * f, 16 * f, 3))
    return model.predict([img1], [img2], K_TINY, img1_full=[full])[0]


class TestCheckpoint:
    def test_round_trip_predicts_bitwise_equal(self, tmp_path):
        path = str(tmp_path / "tiny.tvk")
        model = TwoViewNet(TINY, seed=3)
        save_checkpoint(path, model)
        loaded, meta = load_checkpoint(path)
        assert loaded.cfg == TINY
        assert meta["kind"] == "checkpoint-v1"
        before, after = predict_tiny(model), predict_tiny(loaded)
        for field in FIELDS:
            a = np.asarray(getattr(before, field))
            b = np.asarray(getattr(after, field))
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field

    def test_unknown_net_config_key_is_named(self, tmp_path):
        path = str(tmp_path / "bad.tvk")
        model = TwoViewNet(TINY, seed=3)
        meta = {"kind": "checkpoint-v1",
                "net_config": {**asdict(TINY), "depth_levels": 3}}
        save_arrays(path, model.state_dict(), meta=meta)
        with pytest.raises(ValueError, match="depth_levels"):
            load_checkpoint(path)
