"""Minimal dense-tensor reverse-mode differentiation engine.

Just enough ops to build and train both transformer sub-networks.
Arrays are numpy, float64 for gradient-check builds and float32 for
training.  Broadcasting is limited to what the networks need (leading
batch dimensions); every op checks the result for NaN/Inf.
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

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __getitem__(self, key):
        return tslice(self, key)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() on non-scalar tensor")
        return float(self.data.reshape(()))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


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
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
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
    a = _as_tensor(a)

    def backward(g):
        return (g * s,)

    return _make(a.data * s, (a,), backward)


def pow_const(a: Tensor, p: float) -> Tensor:
    a = _as_tensor(a)
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


def layernorm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance."""
    a = _as_tensor(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (a.data - mu) * inv
    n = a.shape[-1]

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
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(data, (table,), backward)


# ---------------------------------------------------------------- backward


def backward(loss: Tensor):
    """Populate .grad on every requires_grad tensor reachable from loss.

    Repeated calls without zeroing accumulate gradients.
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
        if node.grad is None:
            node.grad = np.zeros_like(node.data)
        node.grad = node.grad + g
        if node._backward is None:
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


class AdamState:
    def __init__(self):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """Standard Adam update in place; tensors with grad=None are skipped."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = beta1 * state.m[name] + (1 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1 - beta2) * g * g
        mhat = state.m[name] / (1 - beta1 ** t)
        vhat = state.v[name] / (1 - beta2 ** t)
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + eps)


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
