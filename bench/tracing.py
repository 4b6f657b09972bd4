"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each pathscan module
with timing wrappers. A function is replaced under every name that binds
it in any loaded ``pathscan`` module, so a ``from .pat_s import
forward_step`` in ``inference`` is wrapped as well as ``pat_s.forward_step``
itself. Spans are summed in memory per (stage, key); the benchmark sets
``stage`` before each pipeline stage and turns the sums into per-layer
metrics when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import env  # noqa: F401  (import path and thread set-up)
import numpy as np
from pathscan import (autodiff, baselines, cli, features, inference, io, metrics,
                      nn, pat_h, pat_s, synth, trajectory)

AUTODIFF_OPS = ("matmul", "add", "mul", "softmax", "layernorm", "gelu", "sigmoid",
                "embedding_lookup", "tslice", "reshape", "transpose")
# re-run the engine's finite check on every FINITE_STRIDE-th new tensor
FINITE_STRIDE = 7


# (module, function name, trace key, extra value recorded from (args, result))
TARGETS = [
    (cli, "load_corpus", "cli.load_corpus", None),
    (synth, "simulate_reader", "synth.simulate_reader", None),
    (trajectory, "simplify", "trajectory.simplify", lambda a, out: len(out)),
    (trajectory, "split_by_magnification", "trajectory.split",
     lambda a, out: len(a[0].samples)),
    (io, "write_trajectories", "io.write", None),
    (io, "write_scanpaths", "io.write", None),
    (io, "save_grade_map", "io.write", None),
    (io, "write_manifest", "io.write", None),
    (io, "read_trajectories", "io.read", None),
    (io, "read_scanpaths", "io.read", None),
    (io, "load_grade_map", "io.read", None),
    (io, "parse_config", "io.read", None),
    (features, "token_at", "features.token_at", None),
    (autodiff, "backward", "autodiff.backward", None),
    (autodiff, "zero_grads", "autodiff.zero_grads", None),
    (autodiff, "adam_step", "autodiff.adam_step", None),
    (autodiff, "save_checkpoint", "autodiff.save_checkpoint", None),
    (autodiff, "load_checkpoint", "autodiff.load_checkpoint", None),
    (nn, "attention", "nn.attention", None),
    (nn, "encoder_layer", "nn.encoder_layer", None),
    (nn, "cross_layer", "nn.cross_layer", None),
    (pat_s, "forward_step", "pat_s.forward_step", None),
    (pat_s, "build_memory", "pat_s.build_memory", lambda a, out: out.shape[0]),
    (pat_s, "update_memory", "pat_s.memory_encoder", None),
    (pat_s, "aggregate", "pat_s.cross_attention", None),
    (pat_s, "predict_fixation_heatmap", "pat_s.heads", None),
    (pat_s, "predict_mag", "pat_s.heads", None),
    (pat_s, "focal_loss", "pat_s.loss", None),
    (pat_s, "mag_loss", "pat_s.loss", None),
    (pat_s, "total_loss", "pat_s.loss", None),
    (pat_h, "encode", "pat_h.encode", lambda a, out: out.shape[0]),
    (pat_h, "loss_cc", "pat_h.loss", None),
    (inference, "rollout", "inference.rollout", None),
    (inference, "apply_ior", "inference.apply_ior", lambda a, out: len(a[1].visited)),
    (inference, "next_location", "inference.select", None),
    (inference, "next_mag_probmag", "inference.select", None),
    (inference, "next_mag_priormag", "inference.select", None),
    (metrics, "scanpath_to_heatmap", "metrics.heatmap_nss_auc", None),
    (metrics, "nss", "metrics.heatmap_nss_auc", None),
    (metrics, "auc_judd", "metrics.heatmap_nss_auc", None),
    (metrics, "tok_sim_scan", "metrics.tok_sim_scan", None),
    (metrics, "sss", "metrics.sss", None),
    (metrics, "needleman_wunsch", "metrics.nw", lambda a, out: len(a[0]) * len(a[1])),
    (metrics, "tok_sim_fix", "metrics.tok_sim_fix", None),
    (baselines, "estimate_transition_matrix", "baselines.transition_matrix", None),
]


class Tracer:
    """Sums of calls, seconds and one extra value per (stage, key)."""

    def __init__(self):
        self.stage = "setup"
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.secs: dict[tuple[str, str], float] = defaultdict(float)
        self.extra: dict[tuple[str, str], float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []
        self._step_t0 = 0.0

    # ------------------------------------------------------------ recording

    def _record(self, key: str, dt: float, extra=None):
        k = (self.stage, key)
        self.calls[k] += 1
        self.secs[k] += dt
        if extra is not None:
            self.extra[k] += extra

    def _wrapper(self, func, key, extra):
        tracer = self

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            if key == "autodiff.zero_grads":
                tracer._step_t0 = t0
            out = func(*args, **kwargs)
            t1 = time.perf_counter()
            tracer._record(key, t1 - t0, extra(args, out) if extra else None)
            if key == "autodiff.adam_step":
                tracer._record("step", t1 - tracer._step_t0)
            return out

        return traced

    def _op_wrapper(self, func, key):
        tracer = self

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            out = func(*args, **kwargs)
            tracer._record(key, time.perf_counter() - t0)
            bw = out._backward
            if bw is not None:
                def timed_backward(g):
                    b0 = time.perf_counter()
                    grads = bw(g)
                    tracer._record(key + ".backward", time.perf_counter() - b0)
                    return grads

                out._backward = timed_backward
            return out

        return traced

    # ------------------------------------------------------------ patching

    def _replace_everywhere(self, func, wrapped):
        for name, module in list(sys.modules.items()):
            if not name.startswith("pathscan"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._undo.append((module, attr, func))
                    setattr(module, attr, wrapped)

    def install(self):
        for module, name, key, extra in TARGETS:
            func = getattr(module, name)
            self._replace_everywhere(func, self._wrapper(func, key, extra))
        for op in AUTODIFF_OPS:
            func = getattr(autodiff, op)
            self._replace_everywhere(func, self._op_wrapper(func, f"autodiff.op.{op}"))

        provider_cls = features.SyntheticFeatureProvider
        get = provider_cls.get
        self._undo.append((provider_cls, "get", get))
        provider_cls.get = self._wrapper(get, "features.get", None)

        tensor_cls = autodiff.Tensor
        init = tensor_cls.__init__
        tracer = self

        def counted_init(t, *args, **kwargs):
            init(t, *args, **kwargs)
            k = (tracer.stage, "autodiff.tensor")
            tracer.calls[k] += 1
            if autodiff.TRAP_NONFINITE and tracer.calls[k] % FINITE_STRIDE == 0:
                c0 = time.perf_counter()
                np.all(np.isfinite(t.data))
                tracer._record("autodiff.finite_check", time.perf_counter() - c0)

        self._undo.append((tensor_cls, "__init__", init))
        tensor_cls.__init__ = counted_init

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ reading

    def total(self, key: str, stages, field: str = "secs") -> float:
        table = getattr(self, field)
        return sum(table[(s, key)] for s in stages)

    def dump(self) -> list[dict]:
        keys = sorted(set(self.calls) | set(self.secs))
        return [{"stage": s, "key": k, "calls": self.calls[(s, k)],
                 "ms": 1000.0 * self.secs[(s, k)], "extra": self.extra[(s, k)]}
                for s, k in keys]
