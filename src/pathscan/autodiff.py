"""Minimal dense-tensor reverse-mode differentiation engine.

Just enough ops to build and train both transformer sub-networks.
Arrays are numpy.  ``nn.init_param`` makes every parameter float32, and
training stays float32; a float64 build (for gradient checks) is a model
whose parameters were upcast after init.  Broadcasting is limited to
what the networks need (leading batch dimensions).  Every op checks its
result for NaN/Inf.  The fused nodes ``affine`` (``x @ W + b``) and
``attention`` (multi-head scaled dot-product attention) check their
output, and ``attention`` its scores too, but not every internal array.

Dtype rule: an op's output and every gradient keep the dtype of the
tensors it is given.  A constant (a Python float, a numpy scalar or an
array) takes the dtype of the tensor it meets in ``add``, ``sub``,
``mul`` and ``matmul``; the scalar of ``scale`` and ``pow_const`` is
coerced with ``float()``, which numpy treats as weakly typed.  So a
float32 graph stays float32 whatever precision its constants were
built in.

``backward`` stores ``.grad`` only on leaves (tensors that no op made,
such as parameters); intermediate tensors keep ``grad is None``.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import ContractError, FormatError, NumericError, ShapeError

TRAP_NONFINITE = True

PSCK_MAGIC = b"PSCK"
PSCK_VERSION = 1


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        if TRAP_NONFINITE and not np.all(np.isfinite(self.data)):
            raise NumericError("tensor holds non-finite values")

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return tslice(self, key)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() on non-scalar tensor")
        return float(self.data.reshape(()))


def _as_tensor(x, like=None) -> Tensor:
    """``x`` itself if it is a Tensor, else a constant in the dtype of
    ``like`` (float64 when ``like`` is not a Tensor either)."""
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if isinstance(like, Tensor) else np.float64
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data, parents, backward) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req,
                  _parents=tuple(parents) if req else (),
                  _backward=backward if req else None)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------- core ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    try:
        data = a.data + b.data
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    try:
        data = a.data - b.data
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul requires >= 2-D operands")
    try:
        data = a.data @ b.data
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _make(data, (a, b), backward)


def affine(x, W: Tensor, b: Tensor) -> Tensor:
    """``x @ W + b`` as one node; an array ``x`` takes W's dtype."""
    x = _as_tensor(x, W)
    if x.data.ndim < 2 or W.data.ndim < 2:
        raise ShapeError("affine requires >= 2-D operands")
    try:
        data = x.data @ W.data
        data += b.data
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def backward(g):
        gx = (_unbroadcast(g @ np.swapaxes(W.data, -1, -2), x.shape)
              if x.requires_grad else None)  # an input array needs no gradient
        return (gx, _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, W.shape),
                _unbroadcast(g, b.shape))

    return _make(data, (x, W, b), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``q`` is (m, C), ``k`` and ``v`` are (n, C); each of ``heads`` heads
    attends over its C // heads columns, and the result is the (m, C)
    context with the heads merged back.  Forward and backward work on the
    (heads, m, n) block in place, in the layouts and order of the composed
    ``matmul``/``scale``/``softmax``/``reshape``/``transpose`` graph, so
    they give its bytes.  A non-finite score raises NumericError before
    the exponent.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or k.shape != v.shape:
        raise ShapeError(f"attention needs (m, C) q and equal (n, C) k and v, got "
                         f"{q.shape}, {k.shape} and {v.shape}")
    (m, dim), n = q.shape, k.shape[0]
    if k.shape[1] != dim or dim % heads:
        raise ShapeError(f"{heads} heads over q of {dim} and k of {k.shape[1]} columns")
    dh = dim // heads
    s = float(1.0 / np.sqrt(dh))

    def split(a: np.ndarray, length: int) -> np.ndarray:
        return a.reshape(length, heads, dh).transpose(1, 0, 2)  # (heads, length, dh)

    def merge(a: np.ndarray, length: int) -> np.ndarray:
        return a.transpose(1, 0, 2).reshape(length, dim)

    qh, kh, vh = split(q.data, m), split(k.data, n), split(v.data, n)
    attn = qh @ kh.transpose(0, 2, 1)
    attn *= s
    top = attn.max(axis=-1, keepdims=True)
    if TRAP_NONFINITE and not (np.all(np.isfinite(top)) and np.isfinite(attn.min())):
        raise NumericError("attention scores hold non-finite values")
    attn -= top
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)

    def backward(g):
        gh = split(g, m)
        gs = gh @ np.swapaxes(vh, -1, -2)
        gv = np.swapaxes(attn, -1, -2) @ gh
        gs -= (gs * attn).sum(axis=-1, keepdims=True)
        gs *= attn
        gs *= s
        gk = (np.swapaxes(qh, -1, -2) @ gs).transpose(0, 2, 1)
        return merge(gs @ kh, m), merge(gk, n), merge(gv, n)

    return _make(merge(attn @ vh, m), (q, k, v), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes) if axes is not None else tuple(reversed(range(a.data.ndim)))
    inv = np.argsort(axes)

    def backward(g):
        return (g.transpose(inv),)

    return _make(a.data.transpose(axes), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    try:
        data = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def backward(g):
        return (g.reshape(old),)

    return _make(data, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in ts]
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def backward(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _make(data, ts, backward)


def tslice(a: Tensor, key) -> Tensor:
    a = _as_tensor(a)
    data = a.data[key]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        return (full,)

    return _make(data, (a,), backward)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(data, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size if axis is None else a.shape[axis]
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def scale(a: Tensor, s: float) -> Tensor:
    a, s = _as_tensor(a), float(s)

    def backward(g):
        return (g * s,)

    return _make(a.data * s, (a,), backward)


def pow_const(a: Tensor, p: float) -> Tensor:
    a, p = _as_tensor(a), float(p)
    data = a.data ** p

    def backward(g):
        return (g * p * a.data ** (p - 1.0),)

    return _make(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0):
        raise NumericError("log of non-positive value")

    def backward(g):
        return (g / a.data,)

    return _make(np.log(a.data), (a,), backward)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values; gradient passes through only inside the interval."""
    a = _as_tensor(a)
    data = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)

    def backward(g):
        return (g * inside,)

    return _make(data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    # stabilized: never exponentiates a large positive argument
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), backward)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x * x * x)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def backward(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * dinner),)

    return _make(out, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), backward)


def layernorm(a: Tensor) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (+1e-5 under the root)."""
    a = _as_tensor(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    y = (a.data - mu) * inv

    def backward(g):
        gy = g
        gmean = gy.mean(axis=-1, keepdims=True)
        gydoty = (gy * y).mean(axis=-1, keepdims=True)
        return (inv * (gy - gmean - y * gydoty),)

    return _make(y, (a,), backward)


def embedding_lookup(table: Tensor, indices) -> Tensor:
    table = _as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError("embedding index out of range")
    data = table.data[idx]

    def backward(g):
        # scatter-add of repeated rows: one bincount over flat (row, column) slots
        n_rows, width = table.shape[0], table.data[0].size
        slots = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        full = np.bincount(slots, weights=g.reshape(-1), minlength=n_rows * width)
        return (full.reshape(table.shape).astype(table.data.dtype, copy=False),)

    return _make(data, (table,), backward)


# ---------------------------------------------------------------- backward


def backward(loss: Tensor):
    """Populate .grad on every requires_grad leaf reachable from loss.

    Intermediate tensors are not given a .grad.  Repeated calls without
    zeroing accumulate gradients.
    """
    if loss.data.size != 1:
        raise ContractError("backward requires a scalar loss")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        parent_grads = node._backward(g)
        for p, pg in zip(node._parents, parent_grads):
            if not p.requires_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg


def zero_grads(params) -> None:
    for t in params.values() if isinstance(params, dict) else params:
        t.grad = None


# ---------------------------------------------------------------- optimizer

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    def __init__(self):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float = 1e-3):
    """Standard Adam update in place (ADAM_BETA1, ADAM_BETA2, ADAM_EPS);
    tensors with grad=None are skipped."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = ADAM_BETA1 * state.m[name] + (1 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1 - ADAM_BETA2) * g * g
        mhat = state.m[name] / (1 - ADAM_BETA1 ** t)
        vhat = state.v[name] / (1 - ADAM_BETA2 ** t)
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


# ---------------------------------------------------------------- checkpoint


def save_checkpoint(path, tensors: dict[str, "Tensor | np.ndarray"]):
    """Write the PSCK named-tensor file (float32 payload, trailing CRC32)."""
    items: list[tuple[str, np.ndarray]] = []
    for name, t in tensors.items():
        arr = t.data if isinstance(t, Tensor) else np.asarray(t)
        items.append((name, arr.astype("<f4")))

    body = bytearray()
    body += PSCK_MAGIC
    body += struct.pack("<HI", PSCK_VERSION, len(items))
    payload = bytearray()
    for name, arr in items:
        nb = name.encode("utf-8")
        body += struct.pack("<H", len(nb)) + nb
        body += struct.pack("<B", arr.ndim)
        body += struct.pack(f"<{arr.ndim}I", *arr.shape)
        payload += arr.tobytes()
    body += payload
    crc = zlib.crc32(bytes(body))
    with open(path, "wb") as fh:
        fh.write(bytes(body))
        fh.write(struct.pack("<I", crc))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 14 or raw[:4] != PSCK_MAGIC:
        raise FormatError(f"{path}: not a PSCK checkpoint")
    body, (crc,) = raw[:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) != crc:
        raise FormatError(f"{path}: checksum mismatch")
    version, count = struct.unpack("<HI", raw[4:10])
    if version != PSCK_VERSION:
        raise FormatError(f"{path}: unsupported PSCK version {version}")
    pos = 10
    metas: list[tuple[str, tuple[int, ...]]] = []
    for _ in range(count):
        (nlen,) = struct.unpack("<H", raw[pos : pos + 2])
        pos += 2
        name = raw[pos : pos + nlen].decode("utf-8")
        pos += nlen
        (ndim,) = struct.unpack("<B", raw[pos : pos + 1])
        pos += 1
        shape = struct.unpack(f"<{ndim}I", raw[pos : pos + 4 * ndim])
        pos += 4 * ndim
        metas.append((name, shape))
    out: dict[str, np.ndarray] = {}
    for name, shape in metas:
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw[pos : pos + 4 * n], dtype="<f4")
        if arr.size != n:
            raise FormatError(f"{path}: truncated payload for tensor {name}")
        pos += 4 * n
        out[name] = arr.reshape(shape).copy()
    return out
