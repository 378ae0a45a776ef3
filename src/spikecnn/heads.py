"""Classifier heads over extracted spike features.

Two heads are provided: a two-layer fully connected sigmoid network trained
with mini-batch gradient descent, and a reward-modulated plasticity head
whose weights live in [0, 1] and move by w(1-w)-scaled steps gated by running
hit/miss ratios.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import container

FEATURE_MAGIC = b"FMAT"
FEATURE_VERSION = 2
FEATURE_KIND_F64 = 0
FEATURE_KIND_BITS = 1
HEAD_MAGIC = b"SKHD"
HEAD_VERSION = 1
HEAD_TAG_FCN = 1
HEAD_TAG_RSTDP = 2


def _finite(*arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


@dataclass(eq=False)
class FeatureMatrix:
    """Dense (images x features) matrix with a class label per row.

    ``values`` stays ``bool`` when it is given as bool (spike-count bits);
    anything else is held as float64.  The heads cast to float64 where the
    matrix meets a matmul, so both give the same results.
    """

    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        self.values = values if values.dtype == bool else values.astype(np.float64, copy=False)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.values.ndim != 2:
            raise ValueError("feature values must be 2-D")
        if self.labels.shape != (self.values.shape[0],):
            raise ValueError("one label per row required")
        if self.values.dtype != bool and not np.isfinite(self.values).all():
            raise ValueError("feature values must be finite")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must be non-negative")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# Two-layer fully connected head (sigmoid outputs, backprop)
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FcnHead:
    weights: np.ndarray           # (n_out, n_in)
    biases: np.ndarray            # (n_out,)
    cost: str = "cross_entropy"   # or "quadratic"
    eta0: float = 0.1
    eta_decay: float = 1.007
    lam: float = 0.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.cost not in ("cross_entropy", "quadratic"):
            raise ValueError(f"unknown cost {self.cost!r}")
        if not _finite(self.weights, self.biases, self.eta0, self.eta_decay, self.lam):
            raise ValueError("FCN head weights, biases and rates must be finite")

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    def eta(self, epoch: int) -> float:
        return self.eta0 / self.eta_decay**epoch

    def copy(self) -> "FcnHead":
        return FcnHead(self.weights.copy(), self.biases.copy(), self.cost,
                       self.eta0, self.eta_decay, self.lam)


def init_fcn_head(n_in: int, n_out: int, rng: np.random.Generator,
                  **kwargs) -> FcnHead:
    """Weights ~ N(0, 1/sqrt(n_in)), biases ~ N(0, 1)."""
    w = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_out, n_in))
    b = rng.normal(0.0, 1.0, size=n_out)
    return FcnHead(w, b, **kwargs)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def fcn_forward(head: FcnHead, x: np.ndarray) -> np.ndarray:
    """Sigmoid class scores for one vector or a batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != head.n_in:
        raise ValueError(f"feature length {x.shape[-1]} != n_in {head.n_in}")
    return expit(x @ head.weights.T + head.biases)


def fcn_predict(head: FcnHead, x: np.ndarray) -> np.ndarray:
    return np.argmax(fcn_forward(head, x), axis=-1)


def fcn_cost(head: FcnHead, x: np.ndarray, y: np.ndarray, n_total: int) -> float:
    """Mean cost over a batch plus the lam/(2n) L2 penalty."""
    a = fcn_forward(head, x)
    m = x.shape[0]
    if head.cost == "quadratic":
        data = 0.5 * np.sum((a - y) ** 2) / m
    else:
        eps = 1e-312  # guards log(0); saturation this deep never occurs in training
        data = -np.sum(y * np.log(a + eps) + (1 - y) * np.log(1 - a + eps)) / m
    reg = 0.5 * head.lam / n_total * np.sum(head.weights**2)
    return float(data + reg)


def fcn_gradients(head: FcnHead, x: np.ndarray, y: np.ndarray,
                  n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of ``fcn_cost`` w.r.t. weights and biases.

    For the quadratic cost the output error is (a - y) * sigma'(z); the
    cross-entropy cost cancels the sigma' factor and leaves (a - y).
    """
    x = np.asarray(x, dtype=np.float64)
    z = x @ head.weights.T + head.biases
    a = expit(z)
    m = x.shape[0]
    if head.cost == "quadratic":
        delta = (a - y) * a * (1.0 - a)
    else:
        delta = a - y
    grad_w = delta.T @ x / m + head.lam / n_total * head.weights
    grad_b = delta.mean(axis=0)
    return grad_w, grad_b


def fcn_train_epoch(head: FcnHead, data: FeatureMatrix, batch: int, epoch: int,
                    rng: np.random.Generator, n_total: int | None = None) -> None:
    """One epoch of mini-batch gradient descent over a fresh permutation.

    The learning rate follows eta0 / decay^epoch and the weight update
    includes the L2 term scaled by lam/n over the full training-set size.
    """
    if data.n_rows == 0:
        raise ValueError("empty training data")
    order = rng.permutation(data.n_rows)
    fcn_minibatches(head, data, order, batch, epoch,
                    n_total if n_total is not None else data.n_rows)


def fcn_minibatches(head: FcnHead, data: FeatureMatrix, order: np.ndarray, batch: int,
                    epoch: int, n_total: int) -> None:
    """Gradient steps over the rows ``order`` names, ``batch`` rows at a time."""
    y = one_hot(data.labels, head.n_out)
    eta = head.eta(epoch)
    for start in range(0, len(order), batch):
        idx = order[start:start + batch]
        gw, gb = fcn_gradients(head, data.values[idx], y[idx], n_total)
        head.weights -= eta * gw
        head.biases -= eta * gb


def fcn_accuracy(head: FcnHead, data: FeatureMatrix) -> float:
    return float(np.mean(fcn_predict(head, data.values) == data.labels))


# ---------------------------------------------------------------------------
# Reward-modulated plasticity head
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RstdpHead:
    weights: np.ndarray           # (n_out, n_in) in [0, 1]
    a_r_plus: float = 0.004
    a_r_minus: float = 0.003
    a_p_plus: float = 0.0005
    a_p_minus: float = 0.004
    neurons_per_class: int = 1
    p_drop: float = 0.0
    ratio_mode: str = "batch"     # or "per_image"
    window: int = 100             # N
    miss_ratio: float = 0.5       # running N_miss / N
    _batch_seen: int = 0
    _batch_misses: int = 0
    _history: deque = field(default_factory=deque)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not ((self.weights >= 0.0) & (self.weights <= 1.0)).all():
            raise ValueError("R-STDP weights must lie in [0, 1]")
        if not _finite(self.a_r_plus, self.a_r_minus, self.a_p_plus, self.a_p_minus,
                       self.miss_ratio):
            raise ValueError("R-STDP rates and miss_ratio must be finite")
        if self.window < 1 or self.neurons_per_class < 1:
            raise ValueError("window and neurons_per_class must be >= 1")
        if self.ratio_mode not in ("batch", "per_image"):
            raise ValueError(f"unknown ratio mode {self.ratio_mode!r}")
        if not 0.0 <= self.p_drop < 1.0:
            raise ValueError("p_drop must be in [0, 1)")
        self._history = deque(self._history, maxlen=self.window)

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]

    @property
    def hit_ratio(self) -> float:
        return 1.0 - self.miss_ratio

    def neuron_class(self, neuron: int) -> int:
        return neuron // self.neurons_per_class


def init_rstdp_head(n_in: int, n_out: int, rng: np.random.Generator,
                    mean: float = 0.8, std: float = 0.01, **kwargs) -> RstdpHead:
    w = np.clip(rng.normal(mean, std, size=(n_out, n_in)), 1e-9, 1 - 1e-9)
    return RstdpHead(w, **kwargs)


def rstdp_potentials(head: RstdpHead, spike_counts: np.ndarray) -> np.ndarray:
    """Final membrane potential per output neuron.

    ``spike_counts`` is the per-input total spike count over the image's
    timeline, so V = W @ counts equals the bin-by-bin weighted sum.
    """
    return head.weights @ np.asarray(spike_counts, dtype=np.float64)


def rstdp_decide(head: RstdpHead, potentials: np.ndarray) -> tuple[int, int]:
    """(winning neuron, predicted class); ties go to the lowest index."""
    winner = int(np.argmax(potentials))
    return winner, head.neuron_class(winner)


def rstdp_update(head: RstdpHead, winner: int, label: int,
                 presyn_spiked: np.ndarray,
                 dropout_mask: np.ndarray | None = None) -> None:
    """Reward/punish the winning neuron's incoming weights.

    Correct prediction: +miss_ratio*a_r_plus on inputs that spiked,
    -miss_ratio*a_r_minus on silent ones.  Wrong prediction:
    -hit_ratio*a_p_plus on spiking inputs, +hit_ratio*a_p_minus on silent
    ones.  All steps carry the w(1-w) factor; neurons in the dropout mask
    skip their update.  Only the winner's row is touched.
    """
    if dropout_mask is not None and dropout_mask[winner]:
        return
    spiked = np.asarray(presyn_spiked, dtype=bool)
    w = head.weights[winner]
    if head.neuron_class(winner) == label:
        step = head.miss_ratio * np.where(spiked, head.a_r_plus, -head.a_r_minus)
    else:
        step = head.hit_ratio * np.where(spiked, -head.a_p_plus, head.a_p_minus)
    w += step * w * (1.0 - w)


def update_hit_miss(head: RstdpHead, outcome: str) -> None:
    """Fold one image's outcome ('hit' | 'miss') into the running ratios.

    Batch mode recomputes the ratios once per full window of N images, so a
    freshly configured ratio stays in force for the whole first batch.
    Per-image mode keeps a sliding window of the most recent (up to N)
    outcomes and recomputes after every image, starting from the very first
    one; the configured ratio only seeds the pre-first-image value.
    """
    if outcome not in ("hit", "miss"):
        raise ValueError(f"outcome must be 'hit' or 'miss', got {outcome!r}")
    miss = outcome == "miss"
    if head.ratio_mode == "batch":
        head._batch_seen += 1
        head._batch_misses += int(miss)
        if head._batch_seen == head.window:
            head.miss_ratio = head._batch_misses / head.window
            head._batch_seen = 0
            head._batch_misses = 0
    else:
        head._history.append(int(miss))
        head.miss_ratio = sum(head._history) / len(head._history)


def draw_dropout_mask(n_out: int, p_drop: float, rng: np.random.Generator) -> np.ndarray:
    """Mask exactly round(p_drop * n_out) distinct neurons; redrawn per image."""
    if not 0.0 <= p_drop < 1.0:
        raise ValueError("p_drop must be in [0, 1)")
    k = int(round(p_drop * n_out))
    mask = np.zeros(n_out, dtype=bool)
    if k:
        mask[rng.choice(n_out, size=k, replace=False)] = True
    return mask


def shift_scale_init(weights: np.ndarray) -> np.ndarray:
    """Affine-map a real matrix into [0, 1]: subtract the min, divide by the
    new max.  Constant matrices are degenerate."""
    w = np.asarray(weights, dtype=np.float64)
    lo, hi = w.min(), w.max()
    if hi == lo:
        raise ValueError("constant matrix cannot be shift-scaled")
    return (w - lo) / (hi - lo)


def rstdp_train_pass(head: RstdpHead, data: FeatureMatrix,
                     rng: np.random.Generator, shuffle: bool = True,
                     dropout_rng: np.random.Generator | None = None) -> float:
    """One pass of R-STDP over a feature set; returns the pass accuracy.

    An image with all-zero potentials counts as a miss and triggers no
    weight update.  Dropout masks draw from ``dropout_rng`` when given, so
    the dropout stream can be replayed independently of the shuffle.
    """
    order = rng.permutation(data.n_rows) if shuffle else np.arange(data.n_rows)
    drop_rng = dropout_rng if dropout_rng is not None else rng
    hits = 0
    for i in order:
        counts = data.values[i]
        label = int(data.labels[i])
        v = rstdp_potentials(head, counts)
        if not v.any():
            update_hit_miss(head, "miss")
            continue
        winner, pred = rstdp_decide(head, v)
        mask = draw_dropout_mask(head.n_out, head.p_drop, drop_rng) if head.p_drop else None
        rstdp_update(head, winner, label, counts > 0, mask)
        if pred == label:
            hits += 1
            update_hit_miss(head, "hit")
        else:
            update_hit_miss(head, "miss")
    return hits / max(1, data.n_rows)


def rstdp_predict(head: RstdpHead, x: np.ndarray) -> np.ndarray:
    """Class of the neuron with the highest potential, per row of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    return np.argmax(x @ head.weights.T, axis=1) // head.neurons_per_class


def rstdp_accuracy(head: RstdpHead, data: FeatureMatrix) -> float:
    return float(np.mean(rstdp_predict(head, data.values) == data.labels))


# ---------------------------------------------------------------------------
# Feature matrix export / import
# ---------------------------------------------------------------------------

def export_features(data: FeatureMatrix, path) -> None:
    """Write a feature matrix: magic FMAT, u32 version, u32 kind, u32 rows,
    u32 cols, the values, then one u8 label per row.

    A float64 matrix (kind 0) stores row-major little-endian f64 values; a
    bool matrix (kind 1) stores each row as ceil(cols/8) bytes of
    ``np.packbits``, most significant bit first, pad bits zero.
    """
    labels = container.u8(data.labels, "feature-matrix labels")
    bits = data.values.dtype == bool
    values = np.packbits(data.values, axis=1) if bits else data.values.astype("<f8")
    kind = FEATURE_KIND_BITS if bits else FEATURE_KIND_F64
    container.write(path, FEATURE_MAGIC,
                    ("<IIII", FEATURE_VERSION, kind, data.n_rows, data.n_cols),
                    values, labels)


def import_features(path) -> FeatureMatrix:
    r = container.Reader(path, FEATURE_MAGIC, "feature matrix")
    version, kind, rows, cols = r.unpack("<IIII")
    if version != FEATURE_VERSION:
        raise ValueError(f"unsupported feature-matrix version {version}")
    if kind == FEATURE_KIND_F64:
        values = r.array("<f8", rows, cols).copy()
    elif kind == FEATURE_KIND_BITS:
        packed = r.array(np.uint8, rows, -(-cols // 8))
        if cols % 8 and (packed[:, -1] & (0xFF >> cols % 8)).any():
            raise ValueError("nonzero pad bits in feature matrix")
        values = np.unpackbits(packed, axis=1, count=cols).view(bool)
    else:
        raise ValueError(f"unknown feature-matrix kind {kind}")
    labels = r.array(np.uint8, rows)
    r.done()
    return FeatureMatrix(values, labels.astype(np.int64))


# ---------------------------------------------------------------------------
# Head checkpoints (same container as kernel checkpoints)
# ---------------------------------------------------------------------------

_COSTS = ["cross_entropy", "quadratic"]
_MODES = ["batch", "per_image"]
_FCN_SCALARS = "<II3d"    # n_out, n_in, eta0, eta_decay, lam
_RSTDP_SCALARS = "<II4dIIdd"  # n_out, n_in, four rates, npc, window, p_drop, miss_ratio


def save_head(path, head) -> None:
    if isinstance(head, FcnHead):
        container.write(path, HEAD_MAGIC,
                        ("<III", HEAD_VERSION, HEAD_TAG_FCN, _COSTS.index(head.cost)),
                        (_FCN_SCALARS, head.n_out, head.n_in, head.eta0, head.eta_decay,
                         head.lam),
                        head.weights.astype("<f8"), head.biases.astype("<f8"))
    elif isinstance(head, RstdpHead):
        container.write(path, HEAD_MAGIC,
                        ("<III", HEAD_VERSION, HEAD_TAG_RSTDP, _MODES.index(head.ratio_mode)),
                        (_RSTDP_SCALARS, head.n_out, head.weights.shape[1], head.a_r_plus,
                         head.a_r_minus, head.a_p_plus, head.a_p_minus, head.neurons_per_class,
                         head.window, head.p_drop, head.miss_ratio),
                        head.weights.astype("<f8"))
    else:
        raise TypeError(f"cannot checkpoint {type(head).__name__}")


def load_head(path):
    r = container.Reader(path, HEAD_MAGIC, "head checkpoint")
    version, tag, aux = r.unpack("<III")
    if version != HEAD_VERSION:
        raise ValueError(f"unsupported head version {version}")
    if tag == HEAD_TAG_FCN and aux < len(_COSTS):
        n_out, n_in, eta0, eta_decay, lam = r.unpack(_FCN_SCALARS)
        w, b = r.array("<f8", n_out, n_in), r.array("<f8", n_out)
        r.done()
        return FcnHead(w.copy(), b.copy(), _COSTS[aux], eta0, eta_decay, lam)
    if tag == HEAD_TAG_RSTDP and aux < len(_MODES):
        n_out, n_in, *rates, npc, window, p_drop, miss_ratio = r.unpack(_RSTDP_SCALARS)
        w = r.array("<f8", n_out, n_in)
        r.done()
        return RstdpHead(w.copy(), *rates, neurons_per_class=npc, p_drop=p_drop,
                         ratio_mode=_MODES[aux], window=window, miss_ratio=miss_ratio)
    raise ValueError(f"unknown head tag {tag} or cost/ratio-mode tag {aux}")
