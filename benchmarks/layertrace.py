"""Per-layer tracing of lossyad, installed at run time from the benchmark.

`install` replaces public functions and methods of the package with timing
wrappers (nothing under src/ is edited) and `uninstall` puts the originals
back. Spans are aggregated in memory per name: calls, busy seconds, and the
part of the busy time spent in traced calls made inside the span, so that
self time is busy minus children. Calls are also counted per
(parent span, child span) pair, which gives ratios such as forward passes
per stream window where the work happens.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

import numpy as np

import lossyad.data as data_mod
import lossyad.evaluate as evaluate_mod
import lossyad.model as model_mod
import lossyad.numerics.functional as functional_mod
import lossyad.numerics.tensor as tensor_mod
import lossyad.training as training_mod
from lossyad.bottleneck import Bitstream, FactorizedDensity, LatentCodec
from lossyad.detection import ConfidenceStream
from lossyad.numerics import Adam

MIB = 1024.0 * 1024.0


def _owner_array(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def graph_size(loss):
    """(op nodes, bytes) of the autodiff graph reachable from `loss`.

    Bytes count each distinct buffer once: op outputs plus the arrays the
    backward closures hold (padded inputs, differences). Parameter values
    are left out; they live as long as the model, graph or not.
    """
    seen = set()
    buffers = {}
    params = set()
    nodes = 0
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward_fn is None:
            if node.requires_grad:
                params.add(id(_owner_array(node.data)))
            continue
        nodes += 1
        held = [node.data]
        # the closure itself, under the timing wrapper traced convs carry
        closure = getattr(node._backward_fn, "__wrapped__", node._backward_fn)
        for cell in closure.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:  # empty cell
                continue
            if isinstance(value, np.ndarray):
                held.append(value)
        for a in held:
            owner = _owner_array(a)
            buffers[id(owner)] = owner.nbytes
        stack.extend(node._parents)
    return nodes, sum(b for i, b in buffers.items() if i not in params)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.busy = Counter()
        self.child = Counter()
        self.pairs = Counter()
        self.counts = Counter()   # work counts: symbols, bytes, escapes
        self.peaks = Counter()    # per-call maxima: graph nodes and bytes
        self._stack = []
        self._undo = []

    # -- span recording ---------------------------------------------------

    def _timed(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer.calls[name] += 1
                tracer.busy[name] += dt
                tracer.child[name] += frame[1]
                tracer.pairs[(parent, name)] += 1
                if stack:
                    stack[-1][1] += dt
        return wrapper

    def _patch(self, owner, attr, name, make=None):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        make = make or self._timed
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(name, original.__func__)))
        else:
            setattr(owner, attr, make(name, original))

    # -- wrappers that also count work ------------------------------------

    def _conv(self, name, fn):
        timed = self._timed(name, fn)
        backward_name = name + ".backward"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            if out._backward_fn is not None:
                out._backward_fn = self._timed(backward_name, out._backward_fn)
            return out
        return wrapper

    def _backward(self, name, fn):
        timed = self._timed(name, fn)

        @functools.wraps(fn)
        def wrapper(loss):
            nodes, nbytes = graph_size(loss)
            self.peaks[name + ".graph_nodes"] = max(
                self.peaks[name + ".graph_nodes"], nodes)
            self.peaks[name + ".graph_bytes"] = max(
                self.peaks[name + ".graph_bytes"], nbytes)
            return timed(loss)
        return wrapper

    def _forward_eval(self, name, fn):
        """Counts the graph nodes one forward pass builds, on the first call:
        every tensor constructed with parents is an op node with a closure."""
        timed = self._timed(name, fn)
        tensor_cls = tensor_mod.Tensor
        sampled = []

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sampled:
                return timed(*args, **kwargs)
            original_init = tensor_cls.__init__
            built = [0]

            def counting_init(obj, data, requires_grad=False, _parents=(),
                              _backward_fn=None):
                if _parents:
                    built[0] += 1
                original_init(obj, data, requires_grad, _parents, _backward_fn)

            tensor_cls.__init__ = counting_init
            try:
                return timed(*args, **kwargs)
            finally:
                tensor_cls.__init__ = original_init
                sampled.append(built[0])
                self.peaks[name + ".graph_nodes"] = built[0]
        return wrapper

    def _compress(self, name, fn):
        timed = self._timed(name, fn)

        @functools.wraps(fn)
        def wrapper(codec, symbols):
            bs = timed(codec, symbols)
            self.counts["codec.symbols"] += bs.n_symbols
            self.counts["codec.escapes"] += len(bs.escapes)
            return bs
        return wrapper

    def _to_bytes(self, name, fn):
        timed = self._timed(name, fn)

        @functools.wraps(fn)
        def wrapper(bs):
            raw = timed(bs)
            self.counts["bitstream.bytes"] += len(raw)
            return raw
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self):
        p = self._patch
        p(functional_mod, "causal_conv1d", "conv", self._conv)
        p(functional_mod, "causal_transposed_conv1d", "tconv", self._conv)
        p(functional_mod, "linear", "linear")
        p(training_mod, "backward", "backward", self._backward)
        p(Adam, "step", "adam.step")
        p(FactorizedDensity, "rate_bits", "rate_bits")
        p(LatentCodec, "__init__", "codec.build")
        p(LatentCodec, "compress", "codec.compress", self._compress)
        p(LatentCodec, "decompress", "codec.decompress")
        p(Bitstream, "to_bytes", "bitstream.to_bytes", self._to_bytes)
        p(Bitstream, "from_bytes", "bitstream.from_bytes")
        p(model_mod.TcnAutoencoder, "forward_train", "forward_train")
        p(model_mod.TcnAutoencoder, "ae_reconstruct", "ae_reconstruct")
        p(model_mod.TcnAutoencoder, "forward_eval", "forward_eval",
          self._forward_eval)
        p(model_mod, "save_checkpoint", "checkpoint.save")
        p(model_mod, "load_checkpoint", "checkpoint.load")
        p(training_mod, "fit", "fit")
        p(training_mod.ChannelNormalizer, "update", "normalizer.update")
        p(training_mod, "latent_support", "latent_support")
        p(evaluate_mod, "score_window", "score_window")
        p(ConfidenceStream, "push", "confidence_push")
        p(evaluate_mod, "sweep_one_shot", "sweep_one_shot")
        p(evaluate_mod, "stream_series", "stream_series")
        p(evaluate_mod, "evaluate_one_shot", "evaluate_one_shot")
        p(data_mod, "synth_corpus", "synth_corpus")
        p(data_mod, "build_training_corpus", "build_training_corpus")
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def self_s(self, name):
        return self.busy[name] - self.child[name]

    def metrics(self, stride1_windows):
        """Per-layer metrics by their benchmark names."""
        b, c = self.busy, self.calls
        forwards_in_stream = self.pairs[("stream_series", "forward_eval")]
        return {
            "numerics.causal_conv1d.calls": (c["conv"], "count"),
            "numerics.causal_conv1d.s": (b["conv"], "s"),
            "numerics.causal_conv1d.backward_s": (b["conv.backward"], "s"),
            "numerics.causal_transposed_conv1d.calls": (c["tconv"], "count"),
            "numerics.causal_transposed_conv1d.s": (b["tconv"], "s"),
            "numerics.causal_transposed_conv1d.backward_s": (
                b["tconv.backward"], "s"),
            "numerics.linear.s": (b["linear"], "s"),
            "numerics.backward.calls": (c["backward"], "count"),
            "numerics.backward.s": (b["backward"], "s"),
            "numerics.backward.graph_nodes": (
                self.peaks["backward.graph_nodes"], "count"),
            "numerics.backward.graph_mib": (
                self.peaks["backward.graph_bytes"] / MIB, "MiB"),
            "numerics.adam.step_s": (b["adam.step"], "s"),
            "bottleneck.density.rate_bits.calls": (c["rate_bits"], "count"),
            "bottleneck.density.rate_bits.s": (b["rate_bits"], "s"),
            "bottleneck.codec.build_s": (b["codec.build"], "s"),
            "bottleneck.codec.compress_s": (b["codec.compress"], "s"),
            "bottleneck.codec.decompress_s": (b["codec.decompress"], "s"),
            "bottleneck.codec.symbols": (self.counts["codec.symbols"], "count"),
            "bottleneck.codec.escapes": (self.counts["codec.escapes"], "count"),
            "bottleneck.bitstream.bytes": (self.counts["bitstream.bytes"], "bytes"),
            "model.forward_train.calls": (c["forward_train"], "count"),
            "model.forward_train.s": (b["forward_train"], "s"),
            "model.ae_reconstruct.s": (b["ae_reconstruct"], "s"),
            "model.forward_eval.calls": (c["forward_eval"], "count"),
            "model.forward_eval.s": (b["forward_eval"], "s"),
            "model.forward_eval.graph_nodes": (
                self.peaks["forward_eval.graph_nodes"], "count"),
            "model.checkpoint.save_s": (b["checkpoint.save"], "s"),
            "model.checkpoint.load_s": (b["checkpoint.load"], "s"),
            "training.fit.self_s": (self.self_s("fit"), "s"),
            "training.normalizer.update_s": (b["normalizer.update"], "s"),
            "training.latent_support.s": (b["latent_support"], "s"),
            "detection.score_window.calls": (c["score_window"], "count"),
            "detection.score_window.s": (b["score_window"], "s"),
            "detection.confidence_push.s": (b["confidence_push"], "s"),
            "detection.sweep_one_shot.s": (b["sweep_one_shot"], "s"),
            "evaluate.stream_series.self_s": (self.self_s("stream_series"), "s"),
            "evaluate.evaluate_one_shot.self_s": (
                self.self_s("evaluate_one_shot"), "s"),
            "evaluate.stream_series.forwards_per_window": (
                forwards_in_stream / stride1_windows if stride1_windows else 0.0,
                "ratio"),
            "data.synth_corpus.s": (b["synth_corpus"], "s"),
            "data.build_training_corpus.s": (b["build_training_corpus"], "s"),
        }
