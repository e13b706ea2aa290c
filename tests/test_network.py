import numpy as np

from tvk.autodiff import backward
from tvk.network import NetConfig, TwoViewNet

TINY = NetConfig(width=16, height=16, channels=(2, 4), dtype="float64")


class TestMotionHead:
    def test_outputs_take_their_own_columns(self):
        # r, t and s are columns 0:3, 3:6 and 6 of the last fully connected
        # layer; a gradient on one output reaches only its own bias entries
        model = TwoViewNet(TINY, seed=1)
        rng = np.random.default_rng(2)
        img1, img2 = rng.uniform(size=(2, 3, 16, 16, 3))
        bias = model.params["boot_dm.fc2.b"]
        for key, cols in (("r", slice(0, 3)), ("t", slice(3, 6)),
                          ("s", slice(6, 7))):
            out = model.bootstrap_tensors(list(img1), list(img2))
            model.params.zero_grad()
            backward({out[key]: np.ones_like(out[key].data)})
            grad = bias.grad
            assert np.all(np.delete(grad, np.arange(7)[cols]) == 0.0), key
            if key == "r":
                assert np.array_equal(grad[cols], [3.0, 3.0, 3.0])
            if key == "s":  # d exp(z) / dz = exp(z), summed over the batch
                assert np.isclose(grad[6], out["s"].data.sum(), rtol=1e-12)
        assert np.allclose(np.linalg.norm(out["t"].data, axis=1), 1.0)
        assert np.all(out["s"].data > 0)
