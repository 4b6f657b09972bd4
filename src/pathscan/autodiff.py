"""Minimal dense-tensor reverse-mode differentiation engine.

Just enough ops to build and train both transformer sub-networks.
Arrays are numpy.  ``nn.init_param`` makes every parameter float32, and
training stays float32; a float64 build (for gradient checks) is a model
whose parameters were upcast after init.  Broadcasting is limited to
what the networks need (leading batch dimensions).  Every tensor checks
its values for NaN/Inf when it is made.  The fused nodes ``affine``
(``x @ W + b``), ``attention`` (multi-head scaled dot-product attention)
and ``add_embeddings`` (a sum of embedding lookups) check their output,
and ``attention`` its scores too, but not every internal array; each
gives the bytes of the composed ops it replaces.  ``node`` makes an op's
result, and lets other modules define fused nodes (the stage-2 losses).

``adam_step`` updates every parameter with one pass over a flat buffer
and points each parameter at a view of the new values; it never writes
into an existing parameter array.

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
        self.data = data if type(data) is np.ndarray else np.asarray(data)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        if TRAP_NONFINITE and not np.isfinite(self.data).all():
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


def node(data, parents, backward) -> Tensor:
    """An op's result: ``data`` computed from the tensors ``parents``, and
    ``backward(g)``, which returns one gradient (or None) per parent for the
    result's gradient ``g``. It records the graph only when a parent
    requires a gradient; fused nodes outside this module are made here."""
    for p in parents:
        if p.requires_grad:
            return Tensor(data, requires_grad=True, _parents=tuple(parents),
                          _backward=backward)
    return Tensor(data)


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

    return node(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    try:
        data = a.data - b.data
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return node(data, (a, b), backward)


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

    return node(data, (a, b), backward)


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

    return node(data, (x, W, b), backward)


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

    return node(merge(attn @ vh, m), (q, k, v), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes) if axes is not None else tuple(reversed(range(a.data.ndim)))
    inv = np.argsort(axes)

    def backward(g):
        return (g.transpose(inv),)

    return node(a.data.transpose(axes), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    try:
        data = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def backward(g):
        return (g.reshape(old),)

    return node(data, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in ts]
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def backward(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return node(data, ts, backward)


def tslice(a: Tensor, key) -> Tensor:
    a = _as_tensor(a)
    data = a.data[key]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        return (full,)

    return node(data, (a,), backward)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return node(data, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size if axis is None else a.shape[axis]
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def scale(a: Tensor, s: float) -> Tensor:
    a, s = _as_tensor(a), float(s)

    def backward(g):
        return (g * s,)

    return node(a.data * s, (a,), backward)


def pow_const(a: Tensor, p: float) -> Tensor:
    a, p = _as_tensor(a), float(p)
    data = a.data ** p

    def backward(g):
        return (g * p * a.data ** (p - 1.0),)

    return node(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0):
        raise NumericError("log of non-positive value")

    def backward(g):
        return (g / a.data,)

    return node(np.log(a.data), (a,), backward)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values; gradient passes through only inside the interval."""
    a = _as_tensor(a)
    data = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)

    def backward(g):
        return (g * inside,)

    return node(data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    # stabilized: never exponentiates a large positive argument
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        return (g * out * (1.0 - out),)

    return node(out, (a,), backward)


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

    return node(out, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return node(out, (a,), backward)


def layernorm(a: Tensor) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (+1e-5 under the root).

    Each mean is ``sum(axis=-1) / n``, the operations ``np.mean`` and
    ``np.var`` run, so the bytes are theirs.
    """
    a = _as_tensor(a)
    n = a.shape[-1]
    c = a.data - a.data.sum(axis=-1, keepdims=True) / n
    var = (c * c).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + 1e-5)
    y = c * inv

    def backward(g):
        gmean = g.sum(axis=-1, keepdims=True) / n
        gydoty = (g * y).sum(axis=-1, keepdims=True) / n
        return (inv * (g - gmean - y * gydoty),)

    return node(y, (a,), backward)


def _rows(table: Tensor, indices) -> np.ndarray:
    """``indices`` as int64 after checking that each is a row of ``table``."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError("embedding index out of range")
    return idx


def _scatter_rows(g: np.ndarray, table: Tensor, idx: np.ndarray) -> np.ndarray:
    """The gradient of ``table`` for ``g`` of ``table.data[idx]``: repeated rows
    scatter-add through one bincount over flat (row, column) slots."""
    n_rows, width = table.shape[0], table.data[0].size
    slots = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    full = np.bincount(slots, weights=g.reshape(-1), minlength=n_rows * width)
    return full.reshape(table.shape).astype(table.data.dtype, copy=False)


def embedding_lookup(table: Tensor, indices) -> Tensor:
    table = _as_tensor(table)
    idx = _rows(table, indices)

    def backward(g):
        return (_scatter_rows(g, table, idx),)

    return node(table.data[idx], (table,), backward)


def add_embeddings(x: Tensor, lookups) -> Tensor:
    """``x`` plus the rows ``table.data[indices]`` of each ``(table, indices)``
    pair of ``lookups``, added left to right as one node: the bytes of a
    chain of ``add(·, embedding_lookup(table, indices))``. The rows of
    each lookup must have ``x``'s shape."""
    x = _as_tensor(x)
    pairs = [(t, _rows(t, i)) for t, i in lookups]
    data = x.data
    for table, idx in pairs:
        rows = table.data[idx]
        if rows.shape != x.shape:
            raise ShapeError(f"embedding rows of shape {rows.shape} added to {x.shape}")
        data = data + rows

    def backward(g):
        return (g, *(_scatter_rows(g, table, idx) for table, idx in pairs))

    return node(data, (x, *(t for t, _ in pairs)), backward)


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
        t, processed = stack.pop()
        if processed:
            topo.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for p in t._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for t in reversed(topo):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t._backward is None:
            t.grad = g.copy() if t.grad is None else t.grad + g
            continue
        parent_grads = t._backward(g)
        for p, pg in zip(t._parents, parent_grads):
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
    """The step count and moments of ``adam_step``.

    ``m`` and ``v`` are flat buffers laid out as ``layout`` (name → size,
    in order), the tensors that had a gradient at the last step.
    ``parked`` keeps the (m, v) of tensors that had one before but not then.
    """

    def __init__(self):
        self.t = 0
        self.layout: dict[str, int] = {}
        self.m = self.v = np.zeros(0)
        self.parked: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def relayout(self, live: list[tuple[str, Tensor]]):
        """Lay ``m`` and ``v`` out over the (name, tensor) pairs ``live``,
        each with the moments it had (zeros for a tensor new to the state)."""
        moments = dict(self.parked)
        off = 0
        for name, n in self.layout.items():
            moments[name] = (self.m[off:off + n], self.v[off:off + n])
            off += n
        self.layout = {k: p.data.size for k, p in live}
        self.parked = {k: mv for k, mv in moments.items() if k not in self.layout}
        pairs = [moments.get(k) or (np.zeros(p.data.size, p.data.dtype),) * 2
                 for k, p in live]
        self.m = np.concatenate([m for m, _ in pairs])
        self.v = np.concatenate([v for _, v in pairs])


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float = 1e-3) -> float:
    """One Adam update (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) of every tensor
    that has a gradient; a tensor with grad=None keeps its value and its
    moments. Returns the global L2 norm of the gradient applied.

    The gradients and values are concatenated into flat buffers, the update
    runs once over them, and each updated tensor's ``data`` becomes a view
    of the new values. Nothing is updated in place, so an array taken from
    ``p.data`` before the step keeps its values. Parameters and gradients
    must share one dtype; a mix raises ContractError rather than upcast.
    """
    state.t += 1
    t = state.t
    live = [(k, p) for k, p in params.items() if p.grad is not None]
    if not live:
        return 0.0
    gs = [p.grad.reshape(-1) for _, p in live]
    xs = [p.data.reshape(-1) for _, p in live]
    dtypes = {a.dtype for a in gs + xs}
    if len(dtypes) > 1:
        raise ContractError(f"adam_step over mixed dtypes {sorted(map(str, dtypes))}")
    if [k for k, _ in live] != list(state.layout):
        state.relayout(live)
    g = np.concatenate(gs)
    state.m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * g * g
    mhat = state.m / (1 - ADAM_BETA1 ** t)
    vhat = state.v / (1 - ADAM_BETA2 ** t)
    x = np.concatenate(xs) - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    off = 0
    for _, p in live:
        n = p.data.size
        p.data = x[off:off + n].reshape(p.data.shape)
        off += n
    return float(np.sqrt(g @ g))


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
