"""Outside-in span tracing of sepkit's layers for the per-layer metrics.

`Tracer.install` replaces public sepkit functions with wrappers that record
one span per call: name, start, end, parent span and request id, plus a
work count (planes, taps, sample points, tape nodes, bytes).  Spans stay in
memory until `write` dumps them as CSV.  `summarize` turns the spans of the
traced requests into per-request metrics.  Nothing here changes sepkit; the
wrappers are removed again by `uninstall`.
"""

from __future__ import annotations

import math
import os
import time

from sepkit import autodiff
from sepkit import ca2neck
from sepkit import config
from sepkit import fddem
from sepkit import io as sio
from sepkit import msgrb
from sepkit import spectral
from sepkit import tensor


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _planes(args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    return math.prod(a.shape[:-2])


def _taps(index, name):
    def count(args, kwargs, result):
        w = _arg(args, kwargs, index, name)
        return w.shape[2] * w.shape[3]
    return count


def _points(index):
    def count(args, kwargs, result):
        coords = _arg(args, kwargs, index, "coords")
        return math.prod(coords.shape[:-1])
    return count


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _tape_nodes(args, kwargs, result):
    return len(args[0]._nodes)


# (owner, attribute, span name, count); a count of None records 1 per call.
# Blocks are wrapped where their callers look them up: ca2neck calls
# msgrb_forward through its own module namespace.
TARGETS = [
    (spectral, "dft2_raw", "spectral.dft2", _planes),
    (spectral, "_naive_dft2_planes", "spectral.naive", _planes),
    (tensor, "conv2d_raw", "tensor.conv2d", None),
    (tensor, "conv2d_grads", "tensor.conv2d", None),
    (tensor, "depthwise_conv2d_raw", "tensor.depthwise", _taps(1, "w")),
    (tensor, "depthwise_conv2d_grads", "tensor.depthwise", _taps(2, "w")),
    (tensor, "bilinear_sample_raw", "tensor.bilinear", _points(1)),
    (tensor, "bilinear_sample_grads", "tensor.bilinear", _points(2)),
    (tensor, "gelu_raw", "tensor.pointwise", None),
    (tensor, "gelu_grad", "tensor.pointwise", None),
    (tensor, "sigmoid_raw", "tensor.pointwise", None),
    (tensor, "sigmoid_grad_from_value", "tensor.pointwise", None),
    (tensor, "silu_raw", "tensor.pointwise", None),
    (tensor, "silu_grad", "tensor.pointwise", None),
    (autodiff.Tape, "backward", "autodiff.backward", _tape_nodes),
    (autodiff, "gradcheck", "autodiff.gradcheck", None),
    (autodiff, "_loss_value", "autodiff.loss_eval", None),
    (sio, "read_tensor", "io.read", _file_bytes),
    (sio, "write_tensor", "io.write", _file_bytes),
    (config, "build_chain", "config.build_chain", None),
    (fddem, "fddem_forward", "fddem.forward", None),
    (msgrb, "msgrb_forward", "msgrb.forward", None),
    (ca2neck, "msgrb_forward", "msgrb.forward", None),
    (ca2neck, "ldconv_forward", "ca2neck.ldconv", None),
    (ca2neck, "dysample_forward", "ca2neck.dysample", None),
]

# spans that do numerical or file work; request.self_ms is what they leave
KERNELS = ("spectral.dft2", "spectral.naive", "tensor.conv2d",
           "tensor.depthwise", "tensor.bilinear", "tensor.pointwise",
           "io.read", "io.write")

REQUEST = "request"

# work counts per request: metric -> ("calls" or "count", spans summed)
COUNTS = {
    "spectral.dft2.calls": ("calls", ("spectral.dft2",)),
    "spectral.dft2.planes": ("count", ("spectral.dft2",)),
    "spectral.dft2.naive_planes": ("count", ("spectral.naive",)),
    "tensor.depthwise.taps": ("count", ("tensor.depthwise",)),
    "tensor.bilinear.points": ("count", ("tensor.bilinear",)),
    "tensor.conv2d.calls": ("calls", ("tensor.conv2d",)),
    "autodiff.nodes": ("count", ("autodiff.backward",)),
    "autodiff.gradcheck.loss_evals": ("calls", ("autodiff.loss_eval",)),
    "io.bytes": ("count", ("io.read", "io.write")),
}


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent,
    request, count] with times from time.perf_counter."""

    def __init__(self):
        self.spans: list = []
        self.request_id = -1   # -1 marks set-up spans
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, self.request_id, 1]
            if count is not None:
                spans[index][5] = count(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, name, count in TARGETS:
            if not hasattr(owner, attr):
                continue  # a path the program no longer has counts as idle
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def request(self, request_id: int, fn, *args):
        """Run fn(*args) as the traced request `request_id`."""
        self.request_id = request_id
        try:
            return self._wrap(REQUEST, fn, None)(*args)
        finally:
            self.request_id = -1

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ms,end_ms,parent,request,count\n")
            for i, (name, start, end, parent, req, count) in enumerate(
                    self.spans):
                fh.write(f"{i},{name},{start * 1e3:.6f},{end * 1e3:.6f},"
                         f"{parent},{req},{count}\n")


def summarize(spans: list) -> tuple:
    """Per-request layer metrics from the spans of traced requests.

    A layer's time sums the spans that have no ancestor of the same layer,
    so nested calls (silu_raw -> sigmoid_raw) count once.  Returns
    (per-request means keyed by metric name, per-request work counts as a
    list of dicts, so callers can check they repeat exactly).
    """
    ancestors = []  # names of each span's ancestors
    per_request: dict = {}
    eval_ms = []
    build_ms = []
    for i, (name, start, end, parent, req, count) in enumerate(spans):
        anc = () if parent < 0 else ancestors[parent] + (spans[parent][0],)
        ancestors.append(anc)
        ms = (end - start) * 1e3
        if name == "config.build_chain":
            build_ms.append(ms)
        if req < 0:
            continue
        acc = per_request.setdefault(req, {"ms": {}, "count": {},
                                           "calls": {}, "kernel_ms": 0.0})
        if name == REQUEST:
            acc["request_ms"] = ms
            continue
        if name == "autodiff.loss_eval":
            eval_ms.append(ms)
        if name == "autodiff.backward":
            children = sum((spans[k][2] - spans[k][1]) * 1e3
                           for k in _children(spans, i))
            acc["ms"]["autodiff.backward.self"] = (
                acc["ms"].get("autodiff.backward.self", 0.0) + ms - children)
        if name in anc:
            continue
        acc["ms"][name] = acc["ms"].get(name, 0.0) + ms
        acc["count"][name] = acc["count"].get(name, 0) + count
        acc["calls"][name] = acc["calls"].get(name, 0) + 1
        if name in KERNELS and not any(a in KERNELS for a in anc):
            acc["kernel_ms"] += ms

    reqs = [per_request[r] for r in sorted(per_request)]
    counts = [{key: sum(r[kind].get(span, 0) for span in names)
               for key, (kind, names) in COUNTS.items()} for r in reqs]

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def layer_ms(name):
        return mean(r["ms"].get(name, 0.0) for r in reqs)

    metrics = {
        "request.ms": mean(r["request_ms"] for r in reqs),
        "request.self_ms": mean(r["request_ms"] - r["kernel_ms"]
                                for r in reqs),
        "spectral.dft2.ms": layer_ms("spectral.dft2"),
        "tensor.depthwise.ms": layer_ms("tensor.depthwise"),
        "tensor.bilinear.ms": layer_ms("tensor.bilinear"),
        "tensor.conv2d.ms": layer_ms("tensor.conv2d"),
        "tensor.pointwise.ms": layer_ms("tensor.pointwise"),
        "autodiff.backward.ms": layer_ms("autodiff.backward"),
        "autodiff.backward.self_ms": layer_ms("autodiff.backward.self"),
        "autodiff.gradcheck.ms_per_eval": mean(eval_ms),
        "fddem.forward.ms": layer_ms("fddem.forward"),
        "msgrb.forward.ms": layer_ms("msgrb.forward"),
        "ca2neck.ldconv.ms": layer_ms("ca2neck.ldconv"),
        "ca2neck.dysample.ms": layer_ms("ca2neck.dysample"),
        "io.read.ms": layer_ms("io.read"),
        "io.write.ms": layer_ms("io.write"),
        "config.build_chain.ms": mean(build_ms),
    }
    for key in COUNTS:
        metrics[key] = mean(c[key] for c in counts)
    return metrics, counts


def _children(spans, index):
    """Indices of the direct children of span `index` (they follow it)."""
    end = spans[index][2]
    k = index + 1
    while k < len(spans) and spans[k][1] < end:
        if spans[k][3] == index:
            yield k
        k += 1
