"""Layer algebra: exact MAC, parameter and activation arithmetic.

Every layer knows its input/output shape and derives:

* ``macs`` — multiply-accumulate count of one inference;
* ``param_count`` / ``bias_count`` — values to stage from external memory;
* ``input_elements`` / ``output_elements`` — activation footprints.

Shapes are ``(height, width, channels)`` tuples for spatial layers and
``(features,)`` for vectors.  Kernels, strides and pool windows accept an
``int`` (square) or an ``(h, w)`` tuple (rectangular, e.g. DS-CNN's 10x4
first convolution).  All arithmetic follows the standard TFLite/CMSIS-NN
conventions ("same"/"valid" padding, NHWC).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Tuple, Union

Shape = Tuple[int, ...]
Size2D = Union[int, Tuple[int, int]]


def _pair(value: Size2D, what: str) -> Tuple[int, int]:
    """Normalize an int-or-tuple 2-D size to an ``(h, w)`` tuple."""
    if isinstance(value, int):
        pair = (value, value)
    else:
        pair = tuple(value)  # type: ignore[assignment]
    if len(pair) != 2 or any(not isinstance(v, int) or v <= 0 for v in pair):
        raise ValueError(f"{what} must be a positive int or (h, w) pair, got {value!r}")
    return pair  # type: ignore[return-value]


def _check_shape(shape: Shape, what: str) -> None:
    if not shape or any(d <= 0 for d in shape):
        raise ValueError(f"{what} must have positive dimensions, got {shape}")


def _window_out_hw(
    h: int, w: int, kernel: Tuple[int, int], stride: Tuple[int, int], padding: str
) -> Tuple[int, int]:
    """Output spatial size of a convolution/pool window."""
    kh, kw = kernel
    sh, sw = stride
    if padding == "same":
        return math.ceil(h / sh), math.ceil(w / sw)
    if padding == "valid":
        if kh > h or kw > w:
            raise ValueError(f"kernel {kernel} larger than input {h}x{w} with valid padding")
        return (h - kh) // sh + 1, (w - kw) // sw + 1
    raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")


@dataclass(frozen=True)
class Layer:
    """Base class for all layers.

    Subclasses must set ``kind`` and compute ``output_shape``, ``macs``,
    ``param_count`` and ``bias_count`` in ``__post_init__`` via
    ``object.__setattr__`` (the dataclasses are frozen).
    """

    name: str
    input_shape: Shape
    # Derived fields -- populated by subclasses.
    output_shape: Shape = field(default=(), init=False)
    macs: int = field(default=0, init=False)
    param_count: int = field(default=0, init=False)
    bias_count: int = field(default=0, init=False)
    #: Extra activation values live during this layer beyond input+output
    #: (used by partial layers accumulating into a full output buffer).
    extra_live_elements: int = field(default=0, init=False)

    kind: str = "abstract"

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        _check_shape(self.input_shape, f"{self.name} input_shape")

    # -- activation footprints -----------------------------------------
    @property
    def input_elements(self) -> int:
        """Number of input activation values."""
        return math.prod(self.input_shape)

    @property
    def output_elements(self) -> int:
        """Number of output activation values."""
        return math.prod(self.output_shape)

    def param_bytes(self, quant) -> int:
        """Bytes of weights + biases to stage for this layer."""
        return quant.weight_nbytes(self.param_count) + quant.bias_nbytes(self.bias_count)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.kind}({self.name}: {self.input_shape}->{self.output_shape}, "
            f"macs={self.macs}, params={self.param_count})"
        )


@dataclass(frozen=True)
class Conv2D(Layer):
    """Standard 2-D convolution (NHWC).

    ``macs = out_h * out_w * out_ch * kh * kw * in_ch``
    ``params = kh * kw * in_ch * out_ch`` (+ ``out_ch`` biases).
    """

    out_channels: int = 0
    kernel: Size2D = 3
    stride: Size2D = 1
    padding: str = "same"
    kind: str = "conv2d"

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.input_shape) != 3:
            raise ValueError(f"Conv2D needs (h, w, c) input, got {self.input_shape}")
        if self.out_channels <= 0:
            raise ValueError(f"out_channels must be positive, got {self.out_channels}")
        kh, kw = _pair(self.kernel, f"{self.name} kernel")
        sh, sw = _pair(self.stride, f"{self.name} stride")
        h, w, in_ch = self.input_shape
        out_h, out_w = _window_out_hw(h, w, (kh, kw), (sh, sw), self.padding)
        object.__setattr__(self, "output_shape", (out_h, out_w, self.out_channels))
        object.__setattr__(self, "macs", out_h * out_w * self.out_channels * kh * kw * in_ch)
        object.__setattr__(self, "param_count", kh * kw * in_ch * self.out_channels)
        object.__setattr__(self, "bias_count", self.out_channels)


@dataclass(frozen=True)
class DepthwiseConv2D(Layer):
    """Depthwise 2-D convolution (channel multiplier 1).

    ``macs = out_h * out_w * in_ch * kh * kw``
    ``params = kh * kw * in_ch`` (+ ``in_ch`` biases).
    """

    kernel: Size2D = 3
    stride: Size2D = 1
    padding: str = "same"
    kind: str = "dwconv2d"

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.input_shape) != 3:
            raise ValueError(f"DepthwiseConv2D needs (h, w, c) input, got {self.input_shape}")
        kh, kw = _pair(self.kernel, f"{self.name} kernel")
        sh, sw = _pair(self.stride, f"{self.name} stride")
        h, w, in_ch = self.input_shape
        out_h, out_w = _window_out_hw(h, w, (kh, kw), (sh, sw), self.padding)
        object.__setattr__(self, "output_shape", (out_h, out_w, in_ch))
        object.__setattr__(self, "macs", out_h * out_w * in_ch * kh * kw)
        object.__setattr__(self, "param_count", kh * kw * in_ch)
        object.__setattr__(self, "bias_count", in_ch)


@dataclass(frozen=True)
class Dense(Layer):
    """Fully-connected layer on a flattened input.

    ``macs = in_features * out_features``; ``params`` likewise.
    """

    out_features: int = 0
    kind: str = "dense"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.out_features <= 0:
            raise ValueError(f"out_features must be positive, got {self.out_features}")
        in_features = math.prod(self.input_shape)
        object.__setattr__(self, "output_shape", (self.out_features,))
        object.__setattr__(self, "macs", in_features * self.out_features)
        object.__setattr__(self, "param_count", in_features * self.out_features)
        object.__setattr__(self, "bias_count", self.out_features)


@dataclass(frozen=True)
class Pool(Layer):
    """Average or max pooling.  ``mode='global'`` pools to 1x1."""

    pool: Size2D = 2
    stride: Size2D = 0  # 0 -> same as pool
    mode: str = "avg"
    kind: str = "pool"

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.input_shape) != 3:
            raise ValueError(f"Pool needs (h, w, c) input, got {self.input_shape}")
        if self.mode not in ("avg", "max", "global"):
            raise ValueError(f"mode must be avg|max|global, got {self.mode!r}")
        h, w, c = self.input_shape
        if self.mode == "global":
            out_h, out_w = 1, 1
        else:
            pool = _pair(self.pool, f"{self.name} pool")
            stride = pool if self.stride == 0 else _pair(self.stride, f"{self.name} stride")
            out_h, out_w = _window_out_hw(h, w, pool, stride, "valid")
        object.__setattr__(self, "output_shape", (out_h, out_w, c))
        object.__setattr__(self, "macs", 0)
        object.__setattr__(self, "param_count", 0)
        object.__setattr__(self, "bias_count", 0)


@dataclass(frozen=True)
class Add(Layer):
    """Elementwise residual addition; shape-preserving, parameter-free."""

    kind: str = "add"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "output_shape", self.input_shape)
        object.__setattr__(self, "macs", 0)
        object.__setattr__(self, "param_count", 0)
        object.__setattr__(self, "bias_count", 0)


@dataclass(frozen=True)
class Flatten(Layer):
    """Shape-only reinterpretation; free at runtime."""

    kind: str = "flatten"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "output_shape", (math.prod(self.input_shape),))
        object.__setattr__(self, "macs", 0)
        object.__setattr__(self, "param_count", 0)
        object.__setattr__(self, "bias_count", 0)


@dataclass(frozen=True)
class Softmax(Layer):
    """Softmax over a vector; parameter-free but not free to compute."""

    kind: str = "softmax"

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.input_shape) != 1:
            raise ValueError(f"Softmax needs a flat input, got {self.input_shape}")
        object.__setattr__(self, "output_shape", self.input_shape)
        object.__setattr__(self, "macs", 0)
        object.__setattr__(self, "param_count", 0)
        object.__setattr__(self, "bias_count", 0)


@dataclass(frozen=True)
class PartialLayer(Layer):
    """A filter-group slice of a weight-bearing layer.

    Large layers (a 640x128 dense, a wide pointwise conv) can exceed any
    reasonable staging buffer.  Real staging runtimes split such layers
    into *filter groups*: each group's weights are staged separately and
    compute a slice of the output, accumulated into the full output
    buffer.  :func:`split_layer` produces these slices.

    Chain semantics: non-final slices are shape-preserving (the input
    tensor stays live, the growing output buffer is accounted by
    ``extra_live_elements``); the final slice emits the base layer's
    output shape.

    Use :func:`split_layer`; do not construct directly.
    """

    base_kind: str = "conv2d"
    part: int = 0
    parts: int = 1
    macs_share: int = 0
    params_share: int = 0
    bias_share: int = 0
    base_output_shape: Shape = ()

    kind: str = "partial"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.part < self.parts:
            raise ValueError(f"part must be in [0, parts), got {self.part}/{self.parts}")
        final = self.part == self.parts - 1
        object.__setattr__(
            self, "output_shape", self.base_output_shape if final else self.input_shape
        )
        object.__setattr__(self, "macs", self.macs_share)
        object.__setattr__(self, "param_count", self.params_share)
        object.__setattr__(self, "bias_count", self.bias_share)
        object.__setattr__(self, "kind", self.base_kind)
        extra = 0 if final else math.prod(self.base_output_shape)
        object.__setattr__(self, "extra_live_elements", extra)


#: Layer kinds that can be split filter-wise.
SPLITTABLE_KINDS = ("conv2d", "dwconv2d", "dense")

#: Hard cap on filter groups per layer: beyond this, per-slice overheads
#: dominate and the scheduler gains nothing from finer preemption points.
MAX_SPLIT_PARTS = 48


def _max_parts(layer: Layer) -> int:
    """Largest sensible filter-group count for ``layer``."""
    if layer.kind == "dense":
        return min(MAX_SPLIT_PARTS, layer.output_shape[0])
    if layer.kind in ("conv2d", "dwconv2d"):
        return min(MAX_SPLIT_PARTS, layer.output_shape[2])
    return 1


#: ``(id(layer), parts) -> (layer, slices)``: every split of one layer
#: object into the same number of parts yields the same slice objects, so
#: models refined from one source model share them and identity-keyed
#: memos downstream (the plan cache's fingerprints) meet each slice once.
#: An entry holds its source layer, so the id stays valid while it
#: lives.  :func:`repro.core.segcache.clear_all` empties it.
_split_memo: "OrderedDict[Tuple[int, int], Tuple[Layer, Tuple[Layer, ...]]]" = (
    OrderedDict()
)
_SPLIT_MEMO_MAX = 4096


def split_layer(layer: Layer, parts: int) -> List[Layer]:
    """Split a weight-bearing layer into ``parts`` filter-group slices.

    MACs, weights and biases are divided as evenly as integers allow
    (remainders go to the last slice).  Raises for non-splittable kinds.
    Slices are immutable and shared: splitting the same layer object
    into the same number of parts again returns the same slice objects.
    """
    if layer.kind not in SPLITTABLE_KINDS:
        raise ValueError(f"cannot split layer kind {layer.kind!r}")
    parts = min(parts, _max_parts(layer))
    if parts <= 1:
        return [layer]
    key = (id(layer), parts)
    entry = _split_memo.get(key)
    if entry is not None and entry[0] is layer:
        _split_memo.move_to_end(key)
        return list(entry[1])
    slices: List[Layer] = []
    for part in range(parts):
        first = part == 0
        last = part == parts - 1

        def share(total: int) -> int:
            base = total // parts
            return base + (total - base * parts if last else 0)

        slices.append(
            PartialLayer(
                name=f"{layer.name}#{part}",
                input_shape=layer.input_shape if first else layer.input_shape,
                base_kind=layer.kind,
                part=part,
                parts=parts,
                macs_share=share(layer.macs),
                params_share=share(layer.param_count),
                bias_share=share(layer.bias_count),
                base_output_shape=layer.output_shape,
            )
        )
    _split_memo[key] = (layer, tuple(slices))
    while len(_split_memo) > _SPLIT_MEMO_MAX:
        _split_memo.popitem(last=False)
    return slices
