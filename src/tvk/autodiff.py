"""Dense-tensor reverse-mode differentiation and the Adam optimizer.

Just enough operator vocabulary for the networks in this package:
convolutions (including 1D pairs and stride 2), transposed convolutions,
fully connected layers, a few activations, channel concat/slice, global
average pooling and row normalization. Data layout is (N, C, H, W) for
feature maps and (N, K) for vectors. Everything runs on plain numpy
arrays; convolutions lower to GEMM via im2col so BLAS does the heavy
lifting.

Lowering. Padding writes the input once into a pre-zeroed buffer; the
input gradient of a strided conv writes the output gradient, zero-stuffed
and padded, into one such buffer with a single strided assignment. The
stride-2 4x4 transposed conv (the decoders' upconv) runs as four 2x2 convs,
one per output phase, over windows of one padded input; its flipped kernel
is laid out for all four phases with one copy. Large patch matrices are
built and multiplied in tiles of one sample's output rows that fit in L2,
so a sample's GEMMs do not depend on the batch it is in. For the same
reason ``fully_connected`` runs one GEMM per row: BLAS may block a
multi-row product differently from a single row, and the motion head's
rounding then depended on the batch (the depth proposal amplifies it).
With both, a batch predicts bitwise what its samples predict one by one.

Kernel layouts are memoized on the weight ``Tensor``, for its current
``data`` only: assigning ``data`` drops them. They are used only while that
array is read-only and owns its memory, so it can neither change nor be
changed through another array. ``ParameterStore.add``,
``ParameterStore.load_state_dict`` and ``Adam.step`` leave parameter arrays
read-only: an update replaces the array, and an in-place write raises
``ValueError``. A writeable array (the tensors ``gradcheck_vjp`` builds) is
laid out on every call. An array made writeable again must not be written
and then made read-only again; assign a new array instead.

Gradients accumulate into ``Tensor.grad``. The graph is built eagerly by
the ops: an op's output records its parents and its VJP closure whenever
one of its inputs requires a gradient, and parameters always do.
``backward`` walks the graph in reverse topological order, so two runs over
the same graph produce bitwise-identical results; seeding a tensor that
requires no gradient raises ``ValueError``.

Inside ``with no_grad():`` the ops compute the same arrays but return
leaves: no parents, no VJP, ``requires_grad`` false. Without the closures
an activation is freed as soon as the next op has read it, instead of
living until the whole graph is dropped; inference uses this mode.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor", "ParameterStore", "Adam", "backward", "conv2d", "upconv2d",
    "fully_connected", "activation", "concat_channels", "slice_channels",
    "global_avg_pool", "l2_normalize_rows", "fanin_uniform", "gradcheck_vjp",
    "immutable", "no_grad",
]


class Tensor:
    """A value node: numpy data plus the recipe to push gradients back."""

    __slots__ = ("_data", "_layouts", "grad", "requires_grad", "name",
                 "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, name=None,
                 _parents=(), _vjp=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = _parents
        self._vjp = _vjp  # fn(grad) -> tuple of parent grads (or None)

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value):
        self._data = value
        self._layouts = None  # {layout fn: kernel} of this array, see _layout

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate(self, g):
        if g is None:
            return
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"


_no_grad_depth = 0  # open ``no_grad`` blocks; ops build a graph at 0


class no_grad:
    """Context manager under which ops build no graph (module docstring).

    The mode is process-wide. Blocks nest; leaving one, by an exception
    too, restores the mode that was active when it was entered.
    """

    def __enter__(self):
        global _no_grad_depth
        _no_grad_depth += 1
        return self

    def __exit__(self, *exc):
        global _no_grad_depth
        _no_grad_depth -= 1
        return False


def _op(data, parents, vjp) -> Tensor:
    if _no_grad_depth:
        return Tensor(data)
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, _parents=tuple(parents),
                  _vjp=vjp if req else None)


def backward(seeds: dict) -> None:
    """Reverse-mode accumulation from one or more seeded output nodes.

    Every seeded tensor must require a gradient (be a graph output); one
    that does not, such as an output built under ``no_grad``, raises
    ``ValueError`` before any gradient is accumulated.
    """
    for t in seeds:
        if not t.requires_grad:
            what = repr(t.name) if t.name else f"of shape {t.data.shape}"
            raise ValueError(f"backward: seed tensor {what} does not "
                             "require grad, so nothing would be updated")
    # iterative post-order topological sort over the union of ancestors
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(t, False) for t in seeds]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    for t, seed in seeds.items():
        t.accumulate(np.asarray(seed, dtype=t.data.dtype))

    for node in reversed(topo):
        if node.grad is None or node._vjp is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if parent.requires_grad:
                parent.accumulate(g)


# --- im2col convolution kernels ------------------------------------------

def _pair(v):
    return (v, v) if np.isscalar(v) else tuple(v)


def _patches(xp, kh, kw, sh, sw):
    """Padded input (N,C,Hp,Wp) -> read-only patch view (N,C,kh,kw,Ho,Wo).

    Reshaping the view, or a tile of its output rows, to a matrix with
    C*kh*kw rows copies out the im2col patch matrix; one view serves every
    tile of a call.
    """
    N, C, Hp, Wp = xp.shape
    Ho = (Hp - kh) // sh + 1
    Wo = (Wp - kw) // sw + 1
    s0, s1, s2, s3 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (N, C, kh, kw, Ho, Wo),
        (s0, s1, s2, s3, s2 * sh, s3 * sw), writeable=False)


def _pad4(x, pt, pb, pl, pr):
    if pt == pb == pl == pr == 0:
        return x
    N, C, H, W = x.shape
    xp = np.zeros((N, C, pt + H + pb, pl + W + pr), dtype=x.dtype)
    xp[:, :, pt:pt + H, pl:pl + W] = x
    return xp


# patch-matrix size (elements) above which convolutions run tiled, so that
# one tile's patch matrix, 256 KiB in float32, sits in L2 (2 MiB per core
# on the 2-vCPU Xeon the benchmark ran on) beside the kernel and the output
# tile. Chosen by a sweep over 1<<14 .. 1<<21 on the predict and train
# benchmark workloads, recorded in CHANGES.md; one value serves every shape.
_TILE_LIMIT = 1 << 16


def _tiles(N, Ho, per_row):
    """(sample, first row, end row) of tiles of at most _TILE_LIMIT patch
    elements, or of one output row. A tile never spans samples, so each
    GEMM gets as many columns at batch 8 as at batch 1."""
    rows = max(1, _TILE_LIMIT // max(per_row, 1))
    for n in range(N):
        for r0 in range(0, Ho, rows):
            yield slice(n, n + 1), r0, min(r0 + rows, Ho)


def _conv_fwd(x, w, stride, padding):
    sh, sw = stride
    ph, pw = padding
    O, C, kh, kw = w.shape
    view = _patches(_pad4(x, ph, ph, pw, pw), kh, kw, sh, sw)
    N, Ho, Wo = view.shape[0], view.shape[4], view.shape[5]
    w2 = w.reshape(O, C * kh * kw)
    per_row = C * kh * kw * Wo
    if N * per_row * Ho <= _TILE_LIMIT:
        cols = view.reshape(N, C * kh * kw, Ho * Wo)
        return np.matmul(w2, cols).reshape(N, O, Ho, Wo)
    out = np.empty((N, O, Ho, Wo), dtype=np.result_type(x, w))
    for n, r0, r1 in _tiles(N, Ho, per_row):
        cols = view[n, ..., r0:r1, :].reshape(1, C * kh * kw, (r1 - r0) * Wo)
        out[n, :, r0:r1] = np.matmul(w2, cols).reshape(1, O, r1 - r0, Wo)
    return out


def _conv_dw(x, dy, stride, padding, kshape):
    sh, sw = stride
    ph, pw = padding
    O, C, kh, kw = kshape
    N, _, Ho, Wo = dy.shape
    view = _patches(_pad4(x, ph, ph, pw, pw), kh, kw, sh, sw)
    per_row = C * kh * kw * Wo
    if N * per_row * Ho <= _TILE_LIMIT:
        cols = view.reshape(N, C * kh * kw, Ho * Wo)
        dyf = dy.reshape(N, O, Ho * Wo)
        dw = np.matmul(dyf, cols.transpose(0, 2, 1)).sum(axis=0)
        return dw.reshape(O, C, kh, kw)
    dw = np.zeros((O, C * kh * kw), dtype=np.result_type(x, dy))
    for n, r0, r1 in _tiles(N, Ho, per_row):
        cols = view[n, ..., r0:r1, :].reshape(1, C * kh * kw, (r1 - r0) * Wo)
        dyf = dy[n, :, r0:r1].reshape(1, O, (r1 - r0) * Wo)
        dw += np.matmul(dyf, cols.transpose(0, 2, 1))[0]
    return dw.reshape(O, C, kh, kw)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def immutable(a: np.ndarray) -> bool:
    """True if ``a`` is read-only and owns its memory, so that it can neither
    change nor be changed through another array (see the module docstring):
    what is computed from it may be kept as long as ``a`` itself is."""
    return not a.flags.writeable and a.flags.owndata


def _layout(w: Tensor, make) -> np.ndarray:
    """``make(w.data)``, memoized on ``w`` if ``w.data`` is ``immutable``;
    any other array is laid out on every call."""
    a = w.data
    if not immutable(a):
        return make(a)
    if w._layouts is None:
        w._layouts = {}
    if make not in w._layouts:
        w._layouts[make] = _readonly(make(a))
    return w._layouts[make]


def _phase_kernels(w):
    """(O, C, 4, 4) -> the flipped 2x2 kernels of the four output phases.

    Phase (u, v) correlates with the flipped taps w[..., 1-u::2, 1-v::2];
    one copy lays them out as contiguous (u, v, C, O, 2, 2) kernels.
    """
    O, C, _, _ = w.shape
    return np.ascontiguousarray(w[:, :, ::-1, ::-1].reshape(O, C, 2, 2, 2, 2)
                                .transpose(3, 5, 1, 0, 2, 4))


def _flipped(w):
    """(O, C, kh, kw) -> (C, O, kh, kw), flipped in both spatial axes."""
    return np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))


def _conv_dx_polyphase_2x(dy, wf, x_hw):
    """Stride-2, 4x4, pad-1 transposed conv via per-phase 2x2 convs.

    ``wf`` is ``_phase_kernels`` of the kernel. Avoids the zero-stuffed
    intermediate (3/4 of it is zeros), which matters at full resolution;
    exactly equivalent to the generic path.
    """
    N, _, Ho, Wo = dy.shape
    H, W = x_hw
    dyp = _pad4(dy, 1, 1, 1, 1)
    out = np.empty((N, wf.shape[2], H, W), dtype=dy.dtype)
    for u in (0, 1):
        for v in (0, 1):
            window = dyp[:, :, u:u + Ho + 1, v:v + Wo + 1]
            out[:, :, u::2, v::2] = _conv_fwd(window, wf[u, v], (1, 1), (0, 0))
    return out


def _conv_dx(dy, w: Tensor, stride, padding, x_hw):
    """Gradient w.r.t. the conv input; also the upconv forward kernel."""
    sh, sw = stride
    ph, pw = padding
    O, C, kh, kw = w.data.shape
    N = dy.shape[0]
    Ho, Wo = dy.shape[2], dy.shape[3]
    H, W = x_hw
    if ((sh, sw) == (2, 2) and (kh, kw) == (4, 4) and (ph, pw) == (1, 1)
            and H == 2 * Ho and W == 2 * Wo):
        return _conv_dx_polyphase_2x(dy, _layout(w, _phase_kernels), x_hw)
    Hd = (Ho - 1) * sh + 1
    Wd = (Wo - 1) * sw + 1
    pt = kh - 1 - ph
    pl = kw - 1 - pw
    pb = H + kh - 1 - pt - Hd
    pr = W + kw - 1 - pl - Wd
    if min(pt, pl, pb, pr) < 0:
        raise ValueError("padding exceeds kernel; unsupported configuration")
    # zero-stuffed (stride > 1) and padded in one strided write
    dyp = np.zeros((N, O, H + kh - 1, W + kw - 1), dtype=dy.dtype)
    dyp[:, :, pt:pt + Hd:sh, pl:pl + Wd:sw] = dy
    return _conv_fwd(dyp, _layout(w, _flipped), (1, 1), (0, 0))


def _linear(out, x: Tensor, w: Tensor, b: Tensor | None, dx, dw) -> Tensor:
    """Node of a linear op: ``out`` (a fresh array: the bias ``b`` is added
    in place, along axis 1).

    Its VJP returns ``dx(g)``, ``dw(g)`` and the bias gradient, each only
    for an input that requires a gradient.
    """
    if b is not None:
        out += b.data.reshape((1, -1) + (1,) * (out.ndim - 2))
    parents = (x, w) if b is None else (x, w, b)

    def vjp(g):
        grads = (dx(g) if x.requires_grad else None,
                 dw(g) if w.requires_grad else None)
        if b is None:
            return grads
        axes = (0,) + tuple(range(2, g.ndim))
        return grads + (g.sum(axis=axes) if b.requires_grad else None,)

    return _op(out, parents, vjp)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """Cross-correlation of (N,C,H,W) with kernels (O,C,kh,kw)."""
    stride = _pair(stride)
    padding = _pair(padding)
    if x.data.ndim != 4 or w.data.ndim != 4 or x.data.shape[1] != w.data.shape[1]:
        raise ValueError(
            f"conv2d shape mismatch: input {x.data.shape}, kernel {w.data.shape}")
    x_hw = x.data.shape[2:]
    kshape = w.data.shape
    return _linear(
        _conv_fwd(x.data, w.data, stride, padding), x, w, b,
        lambda g: _conv_dx(g, w, stride, padding, x_hw),
        lambda g: _conv_dw(x.data, g, stride, padding, kshape))


def upconv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
             stride=2, padding=1, out_hw=None) -> Tensor:
    """Transposed convolution: exact adjoint of conv2d with the same kernel.

    The kernel keeps the conv layout (O, C, kh, kw); the input has O
    channels and the output C channels. The default output size is
    (H-1)*stride + k - 2*padding per axis, so stride 2 with k=4, pad=1
    doubles the spatial dimensions exactly; pass ``out_hw`` when the
    matching forward conv dropped trailing rows or columns.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    if x.data.ndim != 4 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(
            f"upconv2d shape mismatch: input {x.data.shape}, kernel {w.data.shape}")
    sh, sw = stride
    ph, pw = padding
    O, C, kh, kw = kshape = w.data.shape
    if out_hw is None:
        Hout = (x.data.shape[2] - 1) * sh + kh - 2 * ph
        Wout = (x.data.shape[3] - 1) * sw + kw - 2 * pw
    else:
        Hout, Wout = out_hw
    return _linear(
        _conv_dx(x.data, w, stride, padding, (Hout, Wout)), x, w, b,
        lambda g: _conv_fwd(g, w.data, stride, padding),
        lambda g: _conv_dw(g, x.data, stride, padding, kshape))


def fully_connected(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """(N, F) @ (F, K) + (K,)."""
    if x.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(
            f"fully_connected shape mismatch: {x.data.shape} @ {w.data.shape}")
    # one GEMM per row, so a row's result does not depend on the batch
    out = np.concatenate([x.data[n:n + 1] @ w.data
                          for n in range(x.data.shape[0])])
    return _linear(out, x, w, b, lambda g: g @ w.data.T,
                   lambda g: x.data.T @ g)


LEAKY_SLOPE = 0.1


def activation(x: Tensor, kind: str) -> Tensor:
    """kinds: 'leaky_relu' (slope 0.1) and 'exp'."""
    if kind == "leaky_relu":
        # equals where(x > 0, x, 0.1 x) bit for bit, -0.0, NaN, +-inf too
        out = np.maximum(x.data, LEAKY_SLOPE * x.data)

        def vjp(g):
            return (np.where(x.data > 0, g,
                             np.asarray(LEAKY_SLOPE, x.dtype) * g),)

        return _op(out, (x,), vjp)
    if kind == "exp":
        out = np.exp(x.data)

        def vjp(g):
            return (g * out,)

        return _op(out, (x,), vjp)
    raise ValueError(f"unknown activation kind {kind!r}")


def concat_channels(tensors: list[Tensor]) -> Tensor:
    """Concatenate (N,C,H,W) tensors along the channel axis."""
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=1)
    sizes = [d.shape[1] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    return _op(out, tuple(tensors), vjp)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    out = x.data[:, start:stop]

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        return (gx,)

    return _op(out, (x,), vjp)


def global_avg_pool(x: Tensor) -> Tensor:
    """(N,C,H,W) -> (N,C) mean over space."""
    N, C, H, W = x.data.shape
    out = x.data.mean(axis=(2, 3))

    def vjp(g):
        scale = np.asarray(1.0 / (H * W), dtype=x.dtype)
        return (np.broadcast_to((g * scale)[:, :, None, None],
                                x.data.shape).copy(),)

    return _op(out, (x,), vjp)


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize each row of (N, K) to unit L2 norm."""
    n = np.linalg.norm(x.data, axis=1, keepdims=True)
    n = np.maximum(n, eps)
    y = x.data / n

    def vjp(g):
        dot = np.sum(g * y, axis=1, keepdims=True)
        return ((g - y * dot) / n,)

    return _op(y, (x,), vjp)


# --- parameters and the optimizer -----------------------------------------

def fanin_uniform(rng: np.random.Generator, shape, fan_in: int,
                  dtype=np.float64) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(3 / fan_in)."""
    a = np.sqrt(3.0 / max(fan_in, 1))
    return rng.uniform(-a, a, size=shape).astype(dtype)


class ParameterStore:
    """Registry of named trainable tensors; names must be unique."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(_readonly(np.array(data)), requires_grad=True, name=name)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def values(self):
        return self._params.values()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, t in self._params.items():
            if name not in state:
                raise KeyError(f"checkpoint is missing parameter {name!r}")
            arr = np.asarray(state[name], dtype=t.data.dtype)
            if arr.shape != t.data.shape:
                raise ValueError(f"parameter {name!r}: shape mismatch")
            t.data = _readonly(arr.copy())


class Adam:
    """Adam with bias correction followed by decoupled weight decay."""

    def __init__(self, params: ParameterStore | dict, lr=1e-4, beta1=0.9,
                 beta2=0.999, eps=1e-8, weight_decay=0.0004):
        self.params = dict(params.items()) if hasattr(params, "items") else params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name in self.params:
            p = self.params[name]
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * np.square(g)
            step = (self.lr * (m / bc1)
                    / (np.sqrt(v / bc2) + self.eps)).astype(p.data.dtype)
            if self.weight_decay:
                step = step + (self.lr * self.weight_decay
                               * p.data).astype(p.data.dtype)
            p.data = _readonly(p.data - step)

    def state_dict(self) -> dict[str, np.ndarray]:
        out = {"adam.t": np.array(self.t, dtype=np.int64)}
        for name in self.params:
            out[f"adam.m.{name}"] = self.m[name].copy()
            out[f"adam.v.{name}"] = self.v[name].copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.t = int(state["adam.t"])
        for name in self.params:
            self.m[name] = np.array(state[f"adam.m.{name}"])
            self.v[name] = np.array(state[f"adam.v.{name}"])


def gradcheck_vjp(fn, inputs: list[np.ndarray], rng: np.random.Generator,
                  step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference VJPs.

    ``fn`` maps input Tensors to one output Tensor; the check projects the
    output against a fixed random seed vector so a scalar can be
    differentiated numerically.
    """
    tensors = [Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
               for x in inputs]
    out = fn(*tensors)
    seed = rng.normal(size=out.data.shape)
    backward({out: seed})

    worst = 0.0
    for t in tensors:
        ana = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.ravel()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(np.sum(fn(*tensors).data * seed))
            flat[i] = orig - step
            fm = float(np.sum(fn(*tensors).data * seed))
            flat[i] = orig
            num[i] = (fp - fm) / (2 * step)
        denom = np.maximum(np.maximum(np.abs(num), np.abs(ana.ravel())), 1e-6)
        worst = max(worst, float(np.max(np.abs(num - ana.ravel()) / denom)))
    return worst
