"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (loops, brute force) and shares no
code with the library paths it checks.
"""

import numpy as np


def conv_oracle(x, w, b, dilation):
    """Direct causal convolution: triple loop over padded products."""
    c_in, t_len = x.shape
    c_out, _, k = w.shape
    pad = (k - 1) * dilation
    xp = np.concatenate([np.zeros((c_in, pad)), x], axis=1)
    out = np.zeros((c_out, t_len))
    for c in range(c_out):
        for t in range(t_len):
            acc = b[c]
            for i in range(c_in):
                for j in range(k):
                    acc += w[c, i, j] * xp[i, t + j * dilation]
            out[c, t] = acc
    return out


def tconv_oracle(x, w, b, dilation):
    """Direct adjoint-form transposed convolution (right padding)."""
    c_in, t_len = x.shape
    _, c_out, k = w.shape
    pad = (k - 1) * dilation
    xp = np.concatenate([x, np.zeros((c_in, pad))], axis=1)
    out = np.zeros((c_out, t_len))
    for o in range(c_out):
        for t in range(t_len):
            acc = b[o]
            for i in range(c_in):
                for j in range(k):
                    acc += w[i, o, j] * xp[i, t + (k - 1 - j) * dilation]
            out[o, t] = acc
    return out


def finite_diff_grad(f, arr, h=1e-5):
    """Central finite differences of scalar f with respect to ndarray arr."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = f()
        flat[i] = orig - h
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_rel_error(analytic, numeric, floor=1e-8):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def detection_pipeline_oracle(x, x_hat, omega, delta, subset_size=10):
    """Brute-force scoring pipeline: scaled abs error, per-time channel max,
    subset means, strict-threshold votes."""
    c, t_len = x.shape
    ae = np.zeros((c, t_len))
    for i in range(c):
        for j in range(t_len):
            ae[i, j] = omega[i] * abs(x[i, j] - x_hat[i, j])
    mae = np.zeros(t_len)
    for j in range(t_len):
        best = ae[0, j]
        for i in range(1, c):
            if ae[i, j] > best:
                best = ae[i, j]
        mae[j] = best
    n_sub = t_len // subset_size
    means = np.zeros(n_sub)
    for k in range(n_sub):
        means[k] = sum(mae[subset_size * k: subset_size * (k + 1)]) / subset_size
    votes = np.array([1 if means[k] > delta else 0 for k in range(n_sub)])
    per_time = np.repeat(votes, subset_size)
    return ae, mae, means, votes, per_time


def confidence_oracle(window_votes, t_len, window_len):
    """Recompute confidence scores by enumerating every overlapping window.

    window_votes: (n_windows, window_len) per-time binary votes, window k
    covering 1-indexed times k+1 .. k+window_len.
    """
    n_windows = len(window_votes)
    cs = np.zeros(t_len)
    for t in range(1, t_len + 1):  # 1-indexed time
        total = 0
        for k in range(n_windows):  # window k covers times k+1 .. k+window_len
            start, end = k + 1, k + window_len
            if start <= t <= end:
                total += window_votes[k][t - 1 - k]
        kappa = 1.0 / min(t, window_len)
        cs[t - 1] = kappa * total
    return cs


def sweep_one_shot_oracle(window_means, window_labels, grid, subset_size=10):
    """Per-sample one-shot threshold sweep: at every grid value each
    subset's vote (mean > delta) is expanded to its samples and TP, FP and
    FN are counted sample by sample against the per-time labels; the first
    best grid value wins a tie. Returns ((f1, tp, fp, fn, delta), curve)."""
    means = np.concatenate([np.asarray(m, dtype=np.float64) for m in window_means])
    labels = np.concatenate([np.asarray(l) for l in window_labels]).astype(bool)
    best, curve = None, []
    for delta in grid:
        preds = np.repeat(means > delta, subset_size)
        tp = int(np.sum(preds & labels))
        fp = int(np.sum(preds & ~labels))
        fn = int(np.sum(~preds & labels))
        f1 = 2.0 * tp / (2 * tp + fp + fn)
        curve.append((float(delta), f1))
        if best is None or f1 > best[0]:
            best = (f1, tp, fp, fn, float(delta))
    return best, curve


def range_encode_oracle(tables, symbols):
    """Per-symbol carry-free range encoder: 32-bit low/range, 16-bit
    frequency tables, symbol j coded under tables[j % len(tables)]."""
    low, rng, out = 0, 2 ** 32 - 1, bytearray()
    for j, s in enumerate(symbols):
        freqs = [int(f) for f in tables[j % len(tables)].freqs]
        r = rng // 2 ** 16
        low += sum(freqs[:s]) * r
        rng = freqs[s] * r
        while True:
            if low // 2 ** 24 == (low + rng) // 2 ** 24:
                pass  # top byte settled
            elif rng < 2 ** 16:
                rng = (2 ** 32 - low) % 2 ** 16  # underflow: clamp to the boundary
            else:
                break
            out.append(low // 2 ** 24)
            low = low * 256 % 2 ** 32
            rng *= 256
    for _ in range(4):
        out.append(low // 2 ** 24)
        low = low * 256 % 2 ** 32
    return bytes(out)


def build_training_corpus_oracle(sets, p, seed, window_length, stride,
                                 n_validation, min_anomalous_fraction):
    """The training side of the corpus protocol built window by window, in
    three parallel lists each for the normal prefixes and the anomalous
    pool: (windows, source_ids, offsets, achieved_fraction). It draws from
    the same seeded streams, in the same order, as the library."""
    from lossyad.numerics import RngState

    rng = RngState(seed)
    split_rng = rng.spawn("split")
    sample_rng = rng.spawn("anomaly-sample")
    shuffle_rng = rng.spawn("shuffle")
    with_anomalies = [i for i, s in enumerate(sets) if s.labels.any()]
    pick = split_rng.choice(len(with_anomalies), size=n_validation, replace=False)
    held_out = {with_anomalies[int(j)] for j in pick}
    train = [s for i, s in enumerate(sets) if i not in held_out]
    stacked = np.concatenate([s.channels for s in train], axis=1)
    mean = stacked.mean(axis=1)
    std = np.maximum(stacked.std(axis=1), 1e-8)

    min_count = max(1, int(round(min_anomalous_fraction * window_length)))
    normal_windows, normal_ids, normal_offsets = [], [], []
    pool_windows, pool_ids, pool_offsets = [], [], []
    for s in train:
        x = (s.channels - mean[:, None]) / std[:, None]
        anomalous = np.flatnonzero(s.labels)
        prefix = int(anomalous[0]) if anomalous.size else s.labels.size
        for o in range(0, prefix - window_length + 1, stride):
            normal_windows.append(x[:, o: o + window_length])
            normal_ids.append(s.set_id)
            normal_offsets.append(o)
        for o in range(0, s.labels.size - window_length + 1, stride):
            if int(s.labels[o: o + window_length].sum()) >= min_count:
                pool_windows.append(x[:, o: o + window_length])
                pool_ids.append(s.set_id)
                pool_offsets.append(o)

    n_anom = int(round(p * len(normal_windows) / (1.0 - p))) if p > 0 else 0
    chosen = []
    if n_anom > 0:
        n_pool = len(pool_windows)
        for i in sample_rng.choice(n_pool, size=min(n_anom, n_pool), replace=False):
            chosen.append(int(i))
        if n_anom > n_pool:
            for i in sample_rng.choice(n_pool, size=n_anom - n_pool, replace=True):
                chosen.append(int(i))
    windows = normal_windows + [pool_windows[i] for i in chosen]
    ids = normal_ids + [pool_ids[i] for i in chosen]
    offsets = normal_offsets + [pool_offsets[i] for i in chosen]
    order = shuffle_rng.permutation(len(windows))
    return (np.stack([windows[i] for i in order]), [ids[i] for i in order],
            [offsets[i] for i in order], len(chosen) / len(windows))


def checkpoint_offset(manifest, name):
    """Byte offset of parameter `name` in checkpoint.bin: the float64 sizes
    of the manifest's parameters listed before it, summed."""
    offset = 0
    for entry in manifest["parameters"]:
        if entry["name"] == name:
            return offset
        offset += 8 * int(np.prod(entry["shape"]))
    raise KeyError(name)
