"""Dense-tensor reverse-mode differentiation and the Adam optimizer.

Just enough operator vocabulary for the networks in this package:
convolutions (including 1D pairs and stride 2), the x2 transposed conv,
fully connected layers, exp, channel concat/slice, global
average pooling and row normalization. Data layout is (N, C, H, W) for
feature maps and (N, K) for vectors. Everything runs on plain numpy
arrays; convolutions lower to GEMM via im2col so BLAS does the heavy
lifting.

Lowering. Every convolution reads one read-only patch view (N, C, kh, kw,
Ho, Wo), an ``ndarray`` that ``_im2col`` builds on the input padded once.
Its callers walk it in tiles of one sample's output rows that fit in L2
(``_row_tiles``), so a sample's GEMMs do not depend on the batch it is in;
reshaping a tile's view copies out its patch matrix. ``_conv`` multiplies
each tile by the kernel (a forward), by the output gradient (a kernel
gradient), or both in the same walk. The input gradient of ``conv2d``
writes the output gradient, zero-stuffed and padded, into one buffer with
a single strided assignment and convolves it with the flipped kernel.
``upconv2d`` is only the decoders' x2 upconv (4x4, stride 2, padding 1).
Its forward is four 2x2 convs, one per output phase, on windows of one 3x3
patch view, in one walk over its tiles; its flipped kernel is laid out for
all four phases with one copy. Its VJP is the conv it is the adjoint of
(Dumoulin & Visin, arXiv:1603.07285): dx and dw come from one walk over
the once-padded output gradient.
Like the per-sample tiles, ``fully_connected``'s one GEMM per row keeps a
result independent of the batch: BLAS may block a multi-row product
differently from a single row, and the motion head's rounding then
depended on the batch (the depth proposal amplifies it). With both, a
batch predicts bitwise what its samples predict one by one.

One validity rule covers every value computed from a weight: it is used
while its array ``is`` the weight's current one and is ``immutable``
(read-only and owning its memory, so it can neither change nor be changed
through another array), and it keeps that array alive. ``ParameterStore``
and ``Adam.step`` leave parameter arrays read-only: an update replaces the
array, an in-place write raises ``ValueError``, and ``state_dict`` returns
the arrays themselves. Under this rule a weight ``Tensor`` memoizes its
kernel layouts as ``(array, {layout fn: kernel})``, so a replaced weight's
old array lives until that weight's next layout. The memo serves
``upconv2d``'s forward, whose phase kernels inference reads again and
again; ``conv2d``'s input gradient lays its flipped kernel out on every
call, since ``Adam.step`` replaces each trained weight before a later
backward could reuse it. An array made writeable again must not be written
and then made read-only again; assign a new array instead.

Gradients accumulate into ``Tensor.grad``. The graph is built eagerly by
the ops: an op's output records its parents and its VJP closure whenever
one of its inputs requires a gradient, and parameters always do.

``conv2d``, ``upconv2d`` and ``fully_connected`` take the bias and, with
``leaky=True``, the leaky ReLU ``where(x > 0, x, 0.1 x)`` into the op, bit
for bit. Both are applied in place to the whole output, and the VJP takes
the slope from the output (``out > 0`` exactly when the pre-activation is
> 0, NaN included), so a layer keeps one array, not its pre-activation
too, and builds one node.

``backward`` consumes the graph it walks. It visits the nodes in reverse
topological order, so rebuilding a graph and running it again gives
bitwise the same gradients. Once a node's VJP has run, the node drops its
gradient, its VJP and its parents, so the activations and gradients of
finished layers are freed during the walk; only leaves (parameters and
other tensors made with ``requires_grad``) keep a gradient. A VJP result
becomes its parent's gradient without a copy when it owns its memory, is
writeable, has the parent's dtype and shape and was not returned for
another parent; seeds and views (such as concat's) are copied. So a VJP
must return fresh arrays or views, never an array something else keeps.
Seeding a tensor that requires no gradient, or a graph an earlier
``backward`` consumed, raises ``ValueError`` before any gradient is
accumulated.

Inside ``with no_grad():`` the ops compute the same arrays but return
leaves: no parents, no VJP, ``requires_grad`` false. Without the closures
an activation is freed as soon as the next op has read it, instead of
living until ``backward`` reaches it; inference uses this mode.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor", "ParameterStore", "Adam", "backward", "conv2d", "upconv2d",
    "fully_connected", "exp", "concat_channels", "slice_channels",
    "global_avg_pool", "l2_normalize_rows", "fanin_uniform", "immutable",
    "no_grad",
]


class Tensor:
    """A value node: numpy data plus the recipe to push gradients back."""

    __slots__ = ("data", "_layouts", "grad", "requires_grad", "name",
                 "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, name=None,
                 _parents=(), _vjp=None):
        self.data = np.asarray(data)
        self._layouts = (None, None)  # (array, {layout fn: kernel}): _layout
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = _parents
        self._vjp = _vjp  # fn(grad) -> tuple of parent grads (or None)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate(self, g, owned=False):
        """Add ``g`` to ``grad``. With ``owned``, a fresh ``g`` that nothing
        else holds may become ``grad`` itself (see the module docstring)."""
        if g is None:
            return
        if self.grad is not None:
            self.grad += g
        elif (owned and g.flags.owndata and g.flags.writeable
              and g.dtype == self.data.dtype and g.shape == self.data.shape):
            self.grad = g
        else:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)

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


def _what(t: Tensor) -> str:
    return repr(t.name) if t.name else f"of shape {t.data.shape}"


def backward(seeds: dict) -> None:
    """Reverse-mode accumulation from one or more seeded output nodes.

    Every seeded tensor must require a gradient (be a graph output); one
    that does not, such as an output built under ``no_grad``, raises
    ``ValueError`` before any gradient is accumulated, and so does a graph
    an earlier ``backward`` consumed. The walk consumes the graph (module
    docstring): afterwards only leaves hold a gradient.
    """
    for t in seeds:
        if not t.requires_grad:
            raise ValueError(f"backward: seed tensor {_what(t)} does not "
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
        if node._parents is None:
            raise ValueError(f"backward: tensor {_what(node)} belongs to a "
                             "graph an earlier backward consumed")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    for t, seed in seeds.items():
        t.accumulate(np.asarray(seed, dtype=t.data.dtype))

    while topo:  # a call per node: its locals die before the next node
        _consume(topo.pop())


def _consume(node: Tensor) -> None:
    """Push ``node``'s gradient through its VJP into its parents, then drop
    the node's gradient, VJP and parents; a leaf keeps its gradient."""
    vjp, parents, g = node._vjp, node._parents, node.grad
    if vjp is None:
        return
    node._vjp = node._parents = node.grad = None
    if g is None:
        return
    taken: set[int] = set()  # arrays already handed to a parent
    for parent, pg in zip(parents, vjp(g)):
        if parent.requires_grad and pg is not None:
            parent.accumulate(pg, owned=id(pg) not in taken)
            taken.add(id(pg))


# --- im2col convolution kernels ------------------------------------------

def _pair(v):
    return (v, v) if np.isscalar(v) else tuple(v)


def _pad4(x, pt, pb, pl, pr):
    if pt == pb == pl == pr == 0:
        return x
    N, C, H, W = x.shape
    xp = np.zeros((N, C, pt + H + pb, pl + W + pr), dtype=x.dtype)
    xp[:, :, pt:pt + H, pl:pl + W] = x
    return xp


# patch-matrix size (elements) of one tile, so that its patch matrix,
# 256 KiB in float32, sits in L2 (2 MiB per core on the 2-vCPU Xeon the
# benchmark ran on) beside the kernel and the output tile. Chosen by a sweep
# over 1<<14 .. 1<<21 on the predict and train benchmark workloads, recorded
# in CHANGES.md; one value serves every shape.
_TILE_LIMIT = 1 << 16


def _im2col(x, kshape, stride, padding):
    """The read-only patch view (N, C, kh, kw, Ho, Wo) of a conv of ``x``
    with kernels of ``kshape``: an ``ndarray`` over ``x`` padded once."""
    (sh, sw), (ph, pw) = stride, padding
    _, C, kh, kw = kshape
    xp = np.ascontiguousarray(_pad4(x, ph, ph, pw, pw))  # for np.ndarray
    N, _, Hp, Wp = xp.shape
    s0, s1, s2, s3 = xp.strides
    view = np.ndarray((N, C, kh, kw, (Hp - kh) // sh + 1, (Wp - kw) // sw + 1),
                      xp.dtype, xp, strides=(s0, s1, s2, s3, s2 * sh, s3 * sw))
    view.flags.writeable = False
    return view


def _row_tiles(N, Ho, Wo, k):
    """``(n, r0, r1)`` per tile: output rows r0:r1 of sample n, whose patch
    matrix (k by (r1-r0)*Wo) holds at most _TILE_LIMIT elements or one row.
    A tile never spans samples: a GEMM is the same at batch 8 as at 1."""
    rows = max(1, _TILE_LIMIT // (k * Wo))
    return [(n, r0, min(r0 + rows, Ho))
            for n in range(N) for r0 in range(0, Ho, rows)]


def _conv(x, kshape, stride, padding, w=None, dy=None):
    """``(out, dw)`` from one walk over the im2col tiles of ``x``: ``out``
    is the conv of ``x`` with the kernels ``w``, and ``dw`` the kernel
    gradient for the output gradient ``dy``; each is None if its operand
    is."""
    O, k = kshape[0], kshape[1] * kshape[2] * kshape[3]
    view = _im2col(x, kshape, stride, padding)
    N, Ho, Wo = x.shape[0], view.shape[4], view.shape[5]
    out = dw = None
    if w is not None:
        w2 = w.reshape(O, k)
        out = np.empty((N, O, Ho, Wo), dtype=np.result_type(x, w))
    if dy is not None:
        dw = np.zeros((O, k), dtype=np.result_type(x, dy))
    for n, r0, r1 in _row_tiles(N, Ho, Wo, k):
        cols = view[n, ..., r0:r1, :].reshape(k, (r1 - r0) * Wo)
        if out is not None:  # the GEMM writes into a view of ``out``
            np.matmul(w2, cols, out=out[n, :, r0:r1].reshape(O, -1))
        if dw is not None:
            dw += dy[n, :, r0:r1].reshape(O, -1) @ cols.T
    return out, None if dw is None else dw.reshape(kshape)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def immutable(a: np.ndarray) -> bool:
    """True if ``a`` is read-only and owns its memory, so that it can neither
    change nor be changed through another array (see the module docstring):
    what is computed from it may be kept as long as ``a`` itself is."""
    return not a.flags.writeable and a.flags.owndata


def _layout(w: Tensor, make) -> np.ndarray:
    """``make(w.data)``, memoized on ``w`` while ``w.data`` is the array the
    memo was made for and is ``immutable``; any other array is laid out on
    every call."""
    a = w.data
    if not immutable(a):
        return make(a)
    held, layouts = w._layouts
    if held is not a:
        layouts = {}
        w._layouts = (a, layouts)
    if make not in layouts:
        layouts[make] = _readonly(make(a))
    return layouts[make]


def _phase_kernels(w):
    """(O, C, 4, 4) -> the flipped 2x2 kernels of the four output phases.

    Phase (u, v) correlates with the flipped taps w[..., 1-u::2, 1-v::2];
    one copy lays them out as contiguous (u, v, C, O, 2, 2) kernels.
    """
    O, C, _, _ = w.shape
    return np.ascontiguousarray(w[:, :, ::-1, ::-1].reshape(O, C, 2, 2, 2, 2)
                                .transpose(3, 5, 1, 0, 2, 4))


def _upconv_phases(x, wf):
    """Stride-2, 4x4, pad-1 transposed conv of ``x`` by output phases.

    ``wf`` is ``_phase_kernels`` of the kernel. The patches of phase (u, v)
    are the window [u:u+2, v:v+2] of one 3x3 patch view of the once-padded
    ``x``, so the zero-stuffed intermediate (3/4 zeros) is never built. A
    tile's four GEMMs fill a sample's phase-major buffer, and after its last
    tile a strided copy per phase interleaves it into the output (one copy
    of all four phases loops over v, of length 2, innermost: 3-5x slower).
    """
    N, O, H, W = x.shape
    C = wf.shape[2]
    view = _im2col(x, (C, O, 3, 3), (1, 1), (1, 1))  # (N, O, 3, 3, H, W)
    w2 = wf.reshape(2, 2, C, 4 * O)
    phases = np.empty((2, 2, C, H, W), dtype=np.result_type(x, wf))
    out = np.empty((N, C, 2 * H, 2 * W), dtype=x.dtype)
    for n, r0, r1 in _row_tiles(N, H, W, 4 * O):
        tile = view[n, :, :, :, r0:r1]
        for u in (0, 1):
            for v in (0, 1):
                np.matmul(w2[u, v],
                          tile[:, u:u + 2, v:v + 2].reshape(4 * O, -1),
                          out=phases[u, v, :, r0:r1].reshape(C, -1))
                if r1 == H:
                    out[n, :, u::2, v::2] = phases[u, v]
    return out


def _conv_dx(dy, w, stride, padding, x_hw):
    """Gradient w.r.t. the input of ``conv2d`` with the kernel array ``w``."""
    sh, sw = stride
    O, _, kh, kw = w.shape
    N, _, Ho, Wo = dy.shape
    pt, pl = kh - 1 - padding[0], kw - 1 - padding[1]
    # zero-stuffed (stride > 1) and padded in one strided write; the bottom
    # and right padding are at least pt and pl
    dyp = np.zeros((N, O, x_hw[0] + kh - 1, x_hw[1] + kw - 1), dtype=dy.dtype)
    dyp[:, :, pt:pt + (Ho - 1) * sh + 1:sh, pl:pl + (Wo - 1) * sw + 1:sw] = dy
    # (O, C, kh, kw) -> (C, O, kh, kw), flipped in both spatial axes
    wf = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return _conv(dyp, wf.shape, (1, 1), (0, 0), w=wf)[0]


LEAKY_SLOPE = 0.1


def _linear(out, x: Tensor, w: Tensor, b: Tensor | None, grads,
            leaky=False) -> Tensor:
    """Node of a linear op: ``out`` (a fresh array: the bias ``b`` is added
    in place, along axis 1, and with ``leaky`` the leaky ReLU is applied in
    place after it).

    Its VJP returns ``grads(g, x.requires_grad, w.requires_grad)``, which
    is ``(dx, dw)`` with None for an input whose flag is false, and the
    bias gradient if ``b`` requires one; with ``leaky``, ``g`` first goes
    through the activation's VJP, read from ``out``.
    """
    if b is not None:
        out += b.data.reshape((1, -1) + (1,) * (out.ndim - 2))
    if leaky:
        np.maximum(out, LEAKY_SLOPE * out, out=out)
    parents = (x, w) if b is None else (x, w, b)

    def vjp(g):
        if leaky:  # g times its slope, 0.1 or 1, looked up without a branch
            g = g * np.array((LEAKY_SLOPE, 1), out.dtype)[
                (out > 0).view(np.uint8)]
        dxw = grads(g, x.requires_grad, w.requires_grad)
        if b is None:
            return dxw
        axes = (0,) + tuple(range(2, g.ndim))
        return dxw + (g.sum(axis=axes) if b.requires_grad else None,)

    return _op(out, parents, vjp)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride=1, padding=0, leaky=False) -> Tensor:
    """Cross-correlation of (N,C,H,W) with kernels (O,C,kh,kw), plus the
    bias and, with ``leaky``, followed by the leaky ReLU."""
    stride = _pair(stride)
    padding = _pair(padding)
    if x.data.ndim != 4 or w.data.ndim != 4 or x.data.shape[1] != w.data.shape[1]:
        raise ValueError(
            f"conv2d shape mismatch: input {x.data.shape}, kernel {w.data.shape}")
    x_hw = x.data.shape[2:]
    kshape = w.data.shape
    if not all(0 <= p < k for p, k in zip(padding, kshape[2:])):
        raise ValueError(f"conv2d padding {padding} outside [0, kernel size) "
                         f"for kernel {kshape[2:]}")

    def grads(g, gx, gw):
        return (_conv_dx(g, w.data, stride, padding, x_hw) if gx else None,
                _conv(x.data, kshape, stride, padding, dy=g)[1]
                if gw else None)

    return _linear(_conv(x.data, kshape, stride, padding, w=w.data)[0],
                   x, w, b, grads, leaky)


def upconv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
             leaky=False) -> Tensor:
    """The decoders' x2 upconv: the transposed conv that is the exact
    adjoint of ``conv2d`` with the same 4x4 kernel, stride 2 and padding 1.

    The kernel keeps the conv layout (O, C, 4, 4); the input (N, O, H, W)
    becomes the output (N, C, 2H, 2W). The forward runs as four 2x2 convs,
    one per output phase. The VJP is that conv2d's forward (dx) and kernel
    gradient (dw), both from one im2col walk over the output gradient. The
    bias and, with ``leaky``, the leaky ReLU follow as in ``conv2d``.
    """
    if (x.data.ndim != 4 or x.data.shape[1] != w.data.shape[0]
            or w.data.shape[2:] != (4, 4)):
        raise ValueError(
            f"upconv2d takes (N, O, H, W) and an (O, C, 4, 4) kernel: "
            f"input {x.data.shape}, kernel {w.data.shape}")
    kshape = w.data.shape

    def grads(g, gx, gw):
        return _conv(g, kshape, (2, 2), (1, 1), w.data if gx else None,
                     x.data if gw else None)

    return _linear(_upconv_phases(x.data, _layout(w, _phase_kernels)),
                   x, w, b, grads, leaky)


def fully_connected(x: Tensor, w: Tensor, b: Tensor | None = None,
                    leaky=False) -> Tensor:
    """(N, F) @ (F, K) + (K,), with ``leaky`` followed by the leaky ReLU."""
    if x.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(
            f"fully_connected shape mismatch: {x.data.shape} @ {w.data.shape}")
    # one GEMM per row, so a row's result does not depend on the batch
    out = np.concatenate([x.data[n:n + 1] @ w.data
                          for n in range(x.data.shape[0])])
    return _linear(out, x, w, b, lambda g, gx, gw: (
        g @ w.data.T if gx else None, x.data.T @ g if gw else None), leaky)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return _op(out, (x,), lambda g: (g * out,))


def concat_channels(tensors: list[Tensor]) -> Tensor:
    """Concatenate (N,C,H,W) tensors along the channel axis."""
    out = np.concatenate([t.data for t in tensors], axis=1)

    def vjp(g):  # the offsets only a backward reads
        offsets = np.cumsum([0] + [t.data.shape[1] for t in tensors])
        return tuple(g[:, a:b] for a, b in zip(offsets[:-1], offsets[1:]))

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
        return {name: t.data for name, t in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        unknown = sorted(set(state) - set(self._params))
        if unknown:
            raise KeyError(f"checkpoint has unknown parameters {unknown}")
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
        """Load what ``state_dict`` gave. Before anything loads, an unknown
        or missing entry raises ``KeyError`` and a moment whose shape is not
        its parameter's raises ``ValueError``."""
        moments = {f"adam.{mv}.{name}": p.data.shape
                   for name, p in self.params.items() for mv in "mv"}
        unknown = sorted(set(state) - {"adam.t", *moments})
        if unknown:
            raise KeyError(f"optimizer state has unknown entries {unknown}")
        for key, shape in moments.items():  # a missing key raises here
            if np.shape(state[key]) != shape:
                raise ValueError(f"optimizer state {key!r}: shape "
                                 f"{np.shape(state[key])}, parameter {shape}")
        self.t = int(state["adam.t"])
        for name in self.params:
            self.m[name] = np.array(state[f"adam.m.{name}"])
            self.v[name] = np.array(state[f"adam.v.{name}"])

