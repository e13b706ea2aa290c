from dataclasses import asdict

import numpy as np
import pytest

from tvk.geometry import CameraMotion
from tvk.losses import l1_loss
from tvk.metrics import (
    CSV_FIELDS,
    csv_row,
    depth_error_report,
    endpoint_error,
    l1_inv,
    l1_rel,
    motion_angular_errors,
    sc_inv,
    write_csv,
)

from oracles import (
    epe_bruteforce,
    l1_inv_bruteforce,
    l1_rel_bruteforce,
    rotation_angle_deg_bruteforce,
    rotation_oracle,
    sc_inv_bruteforce,
)


def random_depths(rng, shape=(16, 12)):
    z = rng.uniform(0.5, 5.0, shape)
    z_gt = rng.uniform(0.5, 5.0, shape)
    mask = rng.uniform(size=shape) > 0.25
    mask[0, 0] = True  # never fully empty
    return z, z_gt, mask


class TestScInv:
    def test_exact_zero(self):
        z = np.full((4, 4), 2.0)
        assert sc_inv(z, z) == 0.0

    def test_global_scale_invariance(self):
        rng = np.random.default_rng(0)
        z, z_gt, mask = random_depths(rng)
        base = sc_inv(z, z_gt, mask)
        for alpha in (0.1, 1.0, 7.3, 123.0):
            assert abs(sc_inv(alpha * z, z_gt, mask) - base) < 1e-10

    def test_hand_value_ln2(self):
        val = sc_inv(np.array([[1.0, 2.0]]), np.array([[2.0, 1.0]]))
        assert abs(val - np.log(2.0)) < 1e-12

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            z, z_gt, mask = random_depths(rng)
            assert abs(sc_inv(z, z_gt, mask)
                       - sc_inv_bruteforce(z, z_gt, mask)) < 1e-10

    def test_nonpositive_rejected(self):
        z = np.array([[1.0, -1.0]])
        with pytest.raises(ValueError):
            sc_inv(z, np.abs(z))


class TestL1Rel:
    def test_hand_value(self):
        assert np.isclose(
            l1_rel(np.array([[1.0, 2.0]]), np.array([[2.0, 4.0]])), 0.5)

    def test_ratio_invariance(self):
        rng = np.random.default_rng(2)
        z, z_gt, mask = random_depths(rng)
        assert np.isclose(l1_rel(z, z_gt, mask), l1_rel(2 * z, 2 * z_gt, mask))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z, z_gt, mask = random_depths(rng)
            assert abs(l1_rel(z, z_gt, mask)
                       - l1_rel_bruteforce(z, z_gt, mask)) < 1e-10

    def test_nonpositive_prediction_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            l1_rel(np.array([[-1.0, 2.0]]), np.array([[2.0, 4.0]]))


class TestL1Inv:
    def test_hand_value(self):
        assert np.isclose(l1_inv(np.array([[1.0]]), np.array([[2.0]])), 0.5)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            z, z_gt, mask = random_depths(rng)
            assert abs(l1_inv(z, z_gt, mask)
                       - l1_inv_bruteforce(z, z_gt, mask)) < 1e-10

    def test_consistent_with_depth_loss(self):
        rng = np.random.default_rng(5)
        z, z_gt, mask = random_depths(rng)
        n = int(mask.sum())
        from_loss = l1_loss(1.0 / z, 1.0 / z_gt, mask).value / n
        assert np.isclose(l1_inv(z, z_gt, mask), from_loss, rtol=1e-12)


class TestEPE:
    def test_zero(self):
        w = np.random.default_rng(6).normal(size=(5, 5, 2))
        assert endpoint_error(w, w.copy()) == 0.0

    def test_hand_value(self):
        w = np.zeros((3, 3, 2))
        w_gt = np.zeros((3, 3, 2))
        w[..., 0] = 0.3
        w[..., 1] = 0.4
        assert np.isclose(endpoint_error(w, w_gt), 0.5)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(4, 6, 2))
        w_gt = rng.normal(size=(4, 6, 2))
        base = endpoint_error(w, w_gt)
        perm = rng.permutation(24)
        wp = w.reshape(24, 2)[perm].reshape(4, 6, 2)
        gp = w_gt.reshape(24, 2)[perm].reshape(4, 6, 2)
        assert np.isclose(endpoint_error(wp, gp), base)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            w = rng.normal(size=(16, 12, 2))
            w_gt = rng.normal(size=(16, 12, 2))
            mask = rng.uniform(size=(16, 12)) > 0.25
            mask[0, 0] = True
            assert abs(endpoint_error(w, w_gt, mask)
                       - epe_bruteforce(w, w_gt, mask)) < 1e-10


class TestMotionErrors:
    def test_identical(self):
        m = CameraMotion([0.1, 0, 0], [0, 0, 1.0])
        rep = motion_angular_errors(m, m)
        assert rep.rot_deg == 0.0 and rep.trans_deg == 0.0

    def test_orthogonal_translations(self):
        a = CameraMotion([0, 0, 0], [1.0, 0, 0])
        b = CameraMotion([0, 0, 0], [0, 1.0, 0])
        assert np.isclose(motion_angular_errors(a, b).trans_deg, 90.0)

    def test_small_rotation_degrees(self):
        a = CameraMotion([0.1, 0, 0], [0, 0, 1.0])
        b = CameraMotion([0, 0, 0], [0, 0, 1.0])
        rep = motion_angular_errors(a, b)
        assert abs(rep.rot_deg - np.degrees(0.1)) < 1e-9
        assert abs(rep.rot_deg - 5.7296) < 1e-3

    def test_matches_relative_rotation_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            ra, rb = rng.normal(size=3) * 0.5, rng.normal(size=3) * 0.5
            t = rng.normal(size=3)
            t /= np.linalg.norm(t)
            rep = motion_angular_errors(CameraMotion(ra, t), CameraMotion(rb, t))
            ref = rotation_angle_deg_bruteforce(rotation_oracle(ra),
                                                rotation_oracle(rb))
            assert abs(rep.rot_deg - ref) < 1e-9

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            motion_angular_errors(CameraMotion([0, 0, 0], [0, 0, 2.0]),
                                  CameraMotion([0, 0, 0], [0, 0, 1.0]))


class TestReports:
    def test_depth_report_counts(self):
        rng = np.random.default_rng(13)
        z, z_gt, mask = random_depths(rng)
        rep = depth_error_report(z, z_gt, mask)
        assert rep.n_valid == int(mask.sum())
        assert rep.l1_inv >= 0 and rep.sc_inv >= 0 and rep.l1_rel >= 0

    def test_depth_report_values_are_pinned(self):
        # the four values the three separate metric passes gave, bit for bit
        rng = np.random.default_rng(5)
        z, z_gt = rng.uniform(0.5, 5.0, (2, 48, 64))
        rep = depth_error_report(z, z_gt, rng.uniform(size=(48, 64)) > 0.3)
        assert (rep.l1_inv.hex(), rep.sc_inv.hex(), rep.l1_rel.hex(),
                rep.n_valid) == ("0x1.719f25907dee6p-2", "0x1.a618b1a1b9c98p-1",
                                 "0x1.aa591b3872ba5p-1", 2182)

    def test_csv_schema(self):
        rng = np.random.default_rng(14)
        z, z_gt, mask = random_depths(rng)
        rep = depth_error_report(z, z_gt, mask)
        mot = motion_angular_errors(CameraMotion([0.1, 0, 0], [0, 0, 1.0]),
                                    CameraMotion([0, 0, 0], [0, 0, 1.0]))
        row = csv_row("synthetic", "base-oracle",
                      {**asdict(rep), **asdict(mot), "epe": 0.01})
        text = write_csv([row])
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_FIELDS)
        assert lines[1].startswith("synthetic,base-oracle,")
        parsed = lines[1].split(",")
        assert float(parsed[2]) == pytest.approx(rep.l1_inv, rel=1e-6)

    def test_write_csv_fields_and_file(self, tmp_path):
        path = str(tmp_path / "loss.csv")
        rows = [{"phase": "p1a", "step": 0, "loss": 1.5}]
        text = write_csv(rows, path, ["phase", "step", "loss"])
        assert text == "phase,step,loss\np1a,0,1.5\n"
        with open(path, newline="") as f:
            assert f.read() == text
