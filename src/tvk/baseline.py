"""Classical two-frame structure-from-motion pipeline.

Robust essential-matrix estimation (normalized 8-point inside RANSAC),
motion recovery by cheirality, Levenberg-Marquardt refinement of the
reprojection error. RANSAC solves and scores its hypotheses in blocks
(one stacked 8-point solve and one batched Sampson pass each) whose sizes
double from 8 up to ``_RANSAC_BLOCK``, drawing a block's minimal samples at
its start, in the order of one draw per hypothesis; ``eight_point`` and
``sampson_distance`` are batch-of-one calls of the same helpers, so blocks
of any sizes give bitwise the results of scoring one hypothesis at a time.
RANSAC stops after the first block in which a hypothesis counts every
match as an inlier. The stop is exact wherever a block ends, because the
returned E and mask depend only on the winning mask, and any later winner
would have the same all-True mask; a scoring change (MSAC, capped
residuals) must check that argument again. Small first blocks solve few
hypotheses when the all-inlier one comes early; the cap keeps the numpy
call count low when none comes. Matches are
triangulated by ``geometry.triangulate``, for the cheirality vote and the
refinement's start; dense depth by triangulating a flow field with a known
motion is ``geometry.depth_from_flow_motion``, which uses the same
triangulation. The LM step uses the problem's structure (Triggs et al.,
2000): only the image-2 Jacobian rows vary, U and the camera gradient are
one GEMM each over them, the damped 3x3 point blocks are inverted in
closed form, and the Schur complement is GEMMs over (5, 3N) reshapes of
W V^-1 and W. Its sums run in another order than the dense per-point
reference in ``tests/oracles.py``; motions agree with it within 1e-8.
Serves as the comparison baseline for the learned model, and as an oracle
when fed ground-truth flow and motion.

Correspondences are in normalized camera coordinates (intrinsics removed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    CameraMotion,
    FlowField,
    Intrinsics,
    angle_axis_from_rotation,
    rotation_from_angle_axis,
    triangulate,
)


class EstimationError(RuntimeError):
    """Estimation failed (too few points, degenerate configuration, ...)."""


class AmbiguousDecompositionError(EstimationError):
    """No essential-matrix decomposition wins the cheirality vote."""


@dataclass
class Correspondences:
    """Point matches (x1 <-> x2) in normalized camera coordinates."""

    x1: np.ndarray  # (N, 2)
    x2: np.ndarray  # (N, 2)

    def __post_init__(self):
        self.x1 = np.asarray(self.x1, dtype=np.float64).reshape(-1, 2)
        self.x2 = np.asarray(self.x2, dtype=np.float64).reshape(-1, 2)
        if self.x1.shape != self.x2.shape:
            raise ValueError("match arrays differ in shape")
        if not (np.all(np.isfinite(self.x1)) and np.all(np.isfinite(self.x2))):
            raise ValueError("correspondences must be finite")

    def __len__(self):
        return self.x1.shape[0]

    def subset(self, idx) -> "Correspondences":
        return Correspondences(self.x1[idx], self.x2[idx])


# ``ransac_essential`` scores blocks of 8, 16, 32, ... hypotheses, at most
# this many: small first blocks stop soon after an early all-inlier
# hypothesis, and the cap keeps the numpy calls per hypothesis low when no
# stop comes, without larger (block, n, 3) temporaries. Any schedule gives
# the one-at-a-time result, so the sizes change speed only.
_RANSAC_BLOCK = 50


def _hartley_normalize(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per set of (m, n, 2) points: translate to the centroid and scale RMS
    distance to sqrt(2). Returns the points and the (m, 3, 3) transforms."""
    c = pts.mean(axis=1)
    d = pts - c[:, None, :]
    rms = np.sqrt(np.mean(d[..., 0] ** 2 + d[..., 1] ** 2, axis=1))
    s = np.sqrt(2.0) / np.maximum(rms, 1e-12)
    T = np.zeros((pts.shape[0], 3, 3))
    T[:, 0, 0] = T[:, 1, 1] = s
    T[:, 0:2, 2] = -s[:, None] * c
    T[:, 2, 2] = 1.0
    return d * s[:, None, None], T


def _essential_constraints(E: np.ndarray) -> np.ndarray:
    """Project (m, 3, 3) onto rank 2 with singular values (1, 1, 0)."""
    U, S, Vt = np.linalg.svd(E)
    sigma = 0.5 * (S[:, 0] + S[:, 1])
    D = np.zeros_like(E)
    D[:, 0, 0] = D[:, 1, 1] = sigma
    return U @ D @ Vt / sigma[:, None, None]


def _eight_point(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Normalized 8-point on m stacked match sets (m, n, 2), n >= 8.

    Returns the essential matrices of the non-degenerate sets, (k, 3, 3),
    in order. Degenerate sets are dropped before the rank-2 projection, so
    no row divides by a vanishing singular value.
    """
    p1, T1 = _hartley_normalize(x1)
    p2, T2 = _hartley_normalize(x2)
    a1, b1 = p1[..., 0], p1[..., 1]
    a2, b2 = p2[..., 0], p2[..., 1]
    A = np.stack([a2 * a1, a2 * b1, a2, b2 * a1, b2 * b1, b2,
                  a1, b1, np.ones_like(a1)], axis=-1)
    # With 8 matches only the full Vt holds the null vector; with more, the
    # thin SVD gives the same Vt without forming an (n, n) U.
    _, s, Vt = np.linalg.svd(A, full_matrices=A.shape[1] == 8)
    ok = ~(s[:, 7] < 1e-9 * s[:, 0])
    En = Vt[ok, -1].reshape(-1, 3, 3)
    E = T2[ok].transpose(0, 2, 1) @ En @ T1[ok]
    return _essential_constraints(E)


def _sampson(E: np.ndarray, x1h: np.ndarray, x2h: np.ndarray) -> np.ndarray:
    """Squared Sampson distances (k, n) of homogeneous matches (n, 3) under
    k essential matrices (k, 3, 3)."""
    Ex1 = x1h @ E.transpose(0, 2, 1)
    Etx2 = x2h @ E
    # the epipolar products summed left to right, as np.sum does over 3 terms
    num = (x2h[:, 0] * Ex1[..., 0] + x2h[:, 1] * Ex1[..., 1]
           + x2h[:, 2] * Ex1[..., 2]) ** 2
    den = (Ex1[..., 0] ** 2 + Ex1[..., 1] ** 2
           + Etx2[..., 0] ** 2 + Etx2[..., 1] ** 2)
    return num / np.maximum(den, 1e-30)


def _homogeneous(x: np.ndarray) -> np.ndarray:
    return np.hstack([x, np.ones((x.shape[0], 1))])


def eight_point(corr: Correspondences) -> np.ndarray:
    """Essential matrix from >= 8 matches via the normalized 8-point method."""
    n = len(corr)
    if n < 8:
        raise EstimationError(f"need at least 8 correspondences, got {n}")
    E = _eight_point(corr.x1[None], corr.x2[None])
    if not len(E):
        raise EstimationError("degenerate configuration (rank-deficient system)")
    return E[0]


def sampson_distance(E: np.ndarray, corr: Correspondences) -> np.ndarray:
    """First-order squared epipolar distance per match."""
    return _sampson(E[None], _homogeneous(corr.x1), _homogeneous(corr.x2))[0]


def ransac_essential(corr: Correspondences, threshold: float = 1e-4,
                     max_iters: int = 500, seed: int = 0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Robust essential matrix; returns (E, inlier mask). Deterministic.

    Hypotheses are solved and scored in blocks of 8, 16, 32, ... and then
    ``_RANSAC_BLOCK`` hypotheses: one stacked 8-point solve and one batched
    Sampson pass per block. A block's minimal samples are drawn at its
    start, one ``rng.choice(n, 8, replace=False)`` per hypothesis from a
    Philox generator keyed by ``seed``, so hypothesis k gets the k-th draw
    whatever the block sizes. A degenerate minimal sample is skipped but
    uses up its draw. The hypothesis with the most inliers (squared Sampson
    distance below ``threshold``) wins; among equal counts the lowest mean
    inlier distance wins, and among equal means the earlier hypothesis.
    The mean is taken only for hypotheses that can still win. The returned
    E is the 8-point fit to the winner's inliers.

    At most ``max_iters`` hypotheses are tried, and none after the first
    block in which one counts all ``n`` matches as inliers. That gives the
    result of trying all ``max_iters``, wherever the block ends: no count
    exceeds ``n``, a later winner would tie at ``n`` with the same all-True
    mask, and E and the mask depend only on that mask. So the schedule
    changes speed only. ``max_iters`` must be at least 1, and ``threshold``
    finite and positive.
    """
    if not max_iters >= 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    if not (np.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and positive, "
                         f"got {threshold}")
    n = len(corr)
    if n < 8:
        raise EstimationError(f"need at least 8 correspondences, got {n}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    x1h, x2h = _homogeneous(corr.x1), _homogeneous(corr.x2)
    best_mask = None
    best_count = -1
    best_score = np.inf
    start, size = 0, 8
    while start < max_iters and best_count < n:
        block = min(size, max_iters - start)
        start += block
        size = min(2 * size, _RANSAC_BLOCK)
        idx = np.array([rng.choice(n, size=8, replace=False)
                        for _ in range(block)])
        E = _eight_point(corr.x1[idx], corr.x2[idx])
        if not len(E):
            continue
        d = _sampson(E, x1h, x2h)
        masks = d < threshold
        counts = masks.sum(axis=1)
        top = int(counts.max())
        if top < best_count:
            continue
        # only the block's most-inlier hypotheses can still win
        for k in np.flatnonzero(counts == top):
            score = float(d[k][masks[k]].mean()) if top else np.inf
            if top > best_count or score < best_score:
                best_count = top
                best_score = score
                best_mask = masks[k].copy()
    if best_mask is None or best_count < 8:
        raise EstimationError("no model with at least 8 inliers")
    E = eight_point(corr.subset(best_mask))
    return E, best_mask


def _front_depths(R: np.ndarray, t: np.ndarray, corr: Correspondences
                  ) -> tuple[np.ndarray, np.ndarray]:
    """First-camera depths of the triangulated matches, and the mask of the
    matches whose rays are not parallel and meet in front of both cameras."""
    P, ok = triangulate(_homogeneous(corr.x1), _homogeneous(corr.x2), R, t)
    return P[:, 2], ok & (P[:, 2] > 0) & ((P @ R.T + t)[:, 2] > 0)


def decompose_essential(E: np.ndarray, corr: Correspondences) -> CameraMotion:
    """Pick the (R, t) candidate with the best cheirality vote."""
    U, _, Vt = np.linalg.svd(E)
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    R1 = U @ W @ Vt
    R2 = U @ W.T @ Vt
    tu = U[:, 2]
    candidates = [(R1, tu), (R1, -tu), (R2, tu), (R2, -tu)]
    counts = []
    for R, t in candidates:
        counts.append(int(np.sum(_front_depths(R, t, corr)[1])))
    order = np.argsort(counts)
    if counts[order[-1]] == counts[order[-2]]:
        raise AmbiguousDecompositionError(
            f"cheirality tie between decompositions (votes {sorted(counts)})")
    R, t = candidates[int(order[-1])]
    return CameraMotion(angle_axis_from_rotation(R), t / np.linalg.norm(t))


def _tangent_basis(t: np.ndarray) -> np.ndarray:
    """Orthonormal (3, 2) basis of the plane perpendicular to unit t: b1 =
    t x e_x (t x e_y when t is near e_x), normalized, and b2 = t x b1."""
    b1 = (np.array([-t[2], 0.0, t[0]]) if abs(t[0]) > 0.9
          else np.array([0.0, t[2], -t[1]]))
    b1 /= np.linalg.norm(b1)
    b2 = t[[1, 2, 0]] * b1[[2, 0, 1]] - t[[2, 0, 1]] * b1[[1, 2, 0]]
    return np.stack([b1, b2], axis=1)


@dataclass
class RefineResult:
    motion: CameraMotion
    initial_cost: float
    final_cost: float
    iterations: int
    no_progress: bool


def _ba_residuals(R, t, a, xi, x1, x2):
    """Reprojection residuals in both images, (N, 4).

    A point is its (estimated) first-image position ``a`` at inverse
    depth ``xi``: P = (a, 1) / xi. Rows: res1 (2), res2 (2).
    """
    n = a.shape[0]
    ah = np.hstack([a, np.ones((n, 1))])
    P = ah / xi[:, None]
    Q = P @ R.T + t
    res = np.empty((n, 4))
    res[:, 0:2] = a - x1
    res[:, 2] = Q[:, 0] / Q[:, 2] - x2[:, 0]
    res[:, 3] = Q[:, 1] / Q[:, 2] - x2[:, 1]
    return res, Q


def _ba_jacobian(R, t, xi, Q, B):
    """Image-2 rows of the two-frame adjustment's Jacobian, (N, 2, 8), as a
    view of an (8, 2, N) array. Columns: rotation update (3), translation
    tangent (2), then the point's a_x, a_y and xi; each is d(u, v)/dQ =
    [[1, 0, -u], [0, 1, -v]] / z times dQ: dr x RP for a rotation update
    dr, B, R[:, :2] / xi and -RP / xi. The image-1 rows are 0 over the
    camera and [I 0] over the point."""
    q = Q.T.copy()
    iz = 1.0 / q[2]
    uv = q[:2] * iz
    RP = q - t[:, None]
    s0, s1, s2 = RP
    J = np.empty((8, 2, Q.shape[0]))
    J[0, 0] = -iz * uv[0] * s1
    J[0, 1] = -iz * (s2 + uv[1] * s1)
    J[1, 0] = iz * (s2 + uv[0] * s0)
    J[1, 1] = iz * uv[1] * s0
    J[2, 0] = -iz * s1
    J[2, 1] = iz * s0
    J[3:5] = iz * (B[:2].T[:, :, None] - B[2][:, None, None] * uv)
    w = iz / xi
    J[5:7] = w * (R[:2, :2].T[:, :, None] - R[2, :2][:, None, None] * uv)
    J[7] = -w * (RP[:2] - uv * s2)
    return J.transpose(2, 1, 0)


def _sym3_inverse(M):
    """Inverses of symmetric 3x3 blocks stored as (3, 3, N), by adjugate
    over determinant; None when a determinant is zero or not finite."""
    a, b, c, d, e, f = M[0, 0], M[0, 1], M[0, 2], M[1, 1], M[1, 2], M[2, 2]
    adj = np.empty_like(M)
    adj[0, 0] = d * f - e * e
    adj[0, 1] = adj[1, 0] = c * e - b * f
    adj[0, 2] = adj[2, 0] = b * e - c * d
    adj[1, 1] = a * f - c * c
    adj[1, 2] = adj[2, 1] = b * c - a * e
    adj[2, 2] = a * d - b * b
    det = a * adj[0, 0] + b * adj[0, 1] + c * adj[0, 2]
    if not np.all(np.isfinite(det) & (det != 0.0)):
        return None
    return adj / det


def refine_motion(motion: CameraMotion, corr: Correspondences,
                  inliers: np.ndarray | None = None,
                  max_iters: int = 100) -> RefineResult:
    """Levenberg-Marquardt over (r, t on the unit sphere) and the points.

    Two-frame bundle adjustment: each point is parameterized by its
    first-image position and inverse depth, and the squared reprojection
    error in both images is minimized. The per-point blocks are
    eliminated by a Schur complement, so each step solves a 5x5 system.
    The translation stays unit norm via 2D tangent-plane updates. Stops
    when no gradient component exceeds 1e-10 in magnitude, on step norm
    < 1e-12 or at the iteration cap; if no improving step exists the input
    is returned with ``no_progress``.
    Matches that triangulate behind either camera under the starting
    motion are left out: their inverse depth has no valid start, and a
    few of them can dominate the cost and pull the motion away.
    """
    active = corr if inliers is None else corr.subset(inliers)
    n = len(active)
    if n < 8:
        raise EstimationError("refinement needs at least 8 matches")
    m = motion.normalized()
    R = rotation_from_angle_axis(m.r)
    t = m.t.copy()
    z1, front = _front_depths(R, t, active)
    if front.sum() < 8:
        raise EstimationError(
            f"refinement needs at least 8 matches in front of both cameras, "
            f"got {int(front.sum())} of {n}")
    x1, x2 = active.x1[front], active.x2[front]
    a = x1.copy()
    xi = 1.0 / np.clip(z1[front], 1e-6, None)

    res, Q = _ba_residuals(R, t, a, xi, x1, x2)
    cost = initial_cost = float(np.sum(res ** 2))
    lam = 1e-6
    accepted_any = stalled = False
    iters = 0
    for iters in range(1, max_iters + 1):
        B = _tangent_basis(t)
        # (column, row, point) layout: every product below runs over N
        J = _ba_jacobian(R, t, xi, Q, B).transpose(2, 1, 0)
        Jc, Jp, r = J[:5], J[5:], res.T.copy()
        # normal-equation blocks U (5x5), V_k (3x3), W_k (5x3) and the
        # gradient; the image-1 rows add diag(1, 1, 0) to V_k and res1 to gp
        U = Jc.reshape(5, -1) @ Jc.reshape(5, -1).T
        gc = Jc.reshape(5, -1) @ r[2:].reshape(-1)
        V = (Jp[:, None] * Jp[None]).sum(2)
        V[[0, 1], [0, 1]] += 1.0
        W = (Jc[:, None] * Jp[None]).sum(2).reshape(5, -1)
        gp = (Jp * r[2:]).sum(1)
        gp[:2] += r[:2]
        if max(np.abs(gc).max(), np.abs(gp).max()) < 1e-10:
            break
        improved = tiny_step = False
        for _ in range(25):
            Ud = U + lam * np.diag(np.diag(U) + 1e-12)
            Vinv = _sym3_inverse(V + lam * (V + 1e-12) * np.eye(3)[:, :, None])
            if Vinv is None:
                lam *= 4.0
                continue
            WVinv = (W.reshape(5, 3, 1, -1) * Vinv).sum(1).reshape(5, -1)
            S = Ud - WVinv @ W.T
            rhs = WVinv @ gp.reshape(-1) - gc
            try:
                dc = np.linalg.solve(S, rhs)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            dp = -(Vinv * (gp + (dc @ W).reshape(3, -1))).sum(1)
            if np.sqrt(float(dc @ dc) + float(np.sum(dp ** 2))) < 1e-12:
                tiny_step = True
                break
            R_new = rotation_from_angle_axis(dc[0:3]) @ R
            t_new = t + B @ dc[3:5]
            t_new /= np.linalg.norm(t_new)
            a_new = a + dp[:2].T
            xi_new = np.clip(xi + dp[2], 1e-9, None)
            res_new, Q_new = _ba_residuals(R_new, t_new, a_new, xi_new, x1, x2)
            cost_new = float(np.sum(res_new ** 2))
            if cost_new < cost:
                R, t, a, xi = R_new, t_new, a_new, xi_new
                res, Q, cost = res_new, Q_new, cost_new
                lam = max(lam / 3.0, 1e-12)
                improved = accepted_any = True
                break
            lam *= 4.0
        if not improved:
            stalled = not tiny_step
            break
    if stalled and not accepted_any:
        # damping escalation never found a downhill step
        return RefineResult(motion, initial_cost, initial_cost, iters, True)
    refined = CameraMotion(angle_axis_from_rotation(R), t)
    return RefineResult(refined, initial_cost, cost, iters, False)


def sample_correspondences(flow: FlowField, mask: np.ndarray, n: int,
                           seed: int, K: Intrinsics) -> Correspondences:
    """Draw up to n valid-pixel matches from a flow field (seeded)."""
    mask = np.asarray(mask, dtype=bool)
    if not flow.w.shape[:2] == mask.shape == (K.height, K.width):
        raise ValueError("flow, mask and intrinsics resolutions differ")
    ys, xs = np.nonzero(mask)
    count = ys.size
    if count == 0:
        raise EstimationError("no valid pixels to sample")
    if n < count:
        rng = np.random.Generator(np.random.Philox(key=seed))
        pick = rng.choice(count, size=n, replace=False)
        ys, xs = ys[pick], xs[pick]
    u, v = K.pixel_centers()
    u1, v1 = u[xs], v[ys]
    x1 = K.unproject(u1, v1)
    x2 = K.unproject(u1 + flow.w[ys, xs, 0], v1 + flow.w[ys, xs, 1])
    return Correspondences(np.stack(x1, axis=1), np.stack(x2, axis=1))


def estimate_motion_from_flow(flow: FlowField, mask: np.ndarray,
                              K: Intrinsics, seed: int = 0) -> CameraMotion:
    """Full pipeline: 400 seeded matches, RANSAC 8-point at the defaults of
    ``ransac_essential``, cheirality decomposition, then ``refine_motion``."""
    corr = sample_correspondences(flow, mask, 400, seed, K)
    E, inliers = ransac_essential(corr, seed=seed)
    motion = decompose_essential(E, corr.subset(inliers))
    return refine_motion(motion, corr, inliers).motion
