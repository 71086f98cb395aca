"""Brute-force reference implementations of the moving-average and
box-splitting coefficients.

Deliberately written with explicit loops and, for the moving average,
1-based index arithmetic and no numpy, so it cannot share bugs with the
vectorized engine; the box-splitting reference fits each box's line with
numpy's lstsq, not the engine's closed-form slope.  Only suitable for short
series.
"""

import math

import numpy as np


def naive_profile(x):
    out = []
    total = 0.0
    for v in x:
        total += v
        out.append(total)
    return out


def naive_moving_average(profile, s, theta):
    """MA value per 1-based position t, as a dict {t: value}.

    Position t averages profile[t - k] for k from -floor((s-1)*theta) up to
    ceil((s-1)*(1-theta)); only positions where every index stays inside
    1..N are kept.
    """
    N = len(profile)
    g = math.floor((s - 1) * theta)
    h = math.ceil((s - 1) * (1.0 - theta))
    out = {}
    for t in range(1, N + 1):
        if t - h < 1 or t + g > N:
            continue
        total = 0.0
        for k in range(-g, h + 1):
            total += profile[t - k - 1]
        out[t] = total / s
    return out


def naive_residual(profile, s, theta):
    """Residual profile - MA over the valid positions, in position order."""
    ma = naive_moving_average(profile, s, theta)
    return [profile[t - 1] - ma[t] for t in sorted(ma)]


def naive_q_fluctuations(x, y, s, q, theta):
    """(F_x^q, F_y^q, F_xy^q, N_s) per the segment-averaged definitions."""
    N = len(x)
    ex = naive_residual(naive_profile(x), s, theta)
    ey = naive_residual(naive_profile(y), s, theta)
    n_s = math.floor(N / s - 1)
    if n_s < 1:
        raise ValueError(f"no full segment at scale {s}")
    f_x = f_y = f_xy = 0.0
    for v in range(1, n_s + 1):
        l = (v - 1) * s
        sum_xx = sum_yy = sum_xy = 0.0
        for i in range(l + 1, l + s + 1):
            sum_xx += ex[i - 1] ** 2
            sum_yy += ey[i - 1] ** 2
            sum_xy += ex[i - 1] * ey[i - 1]
        f_v_x = math.sqrt(sum_xx / s)
        f_v_y = math.sqrt(sum_yy / s)
        cross = sum_xy / s
        f_x += f_v_x**q
        f_y += f_v_y**q
        f_xy += math.copysign(abs(cross) ** (q / 2.0), cross)
    return f_x / n_s, f_y / n_s, f_xy / n_s, n_s


def rho_dmca_classic(x, y, s, theta):
    """Classic (second-order, whole-sample) DMCA coefficient at one scale.

    Variance and covariance are plain sums of the residual products over
    the full valid index range, with no segmentation; this is why the
    coefficient equals 1 exactly for identical series while the q=2
    segment-averaged coefficient may differ by the trailing-point truncation.
    """
    ex = naive_residual(naive_profile(x), s, theta)
    ey = naive_residual(naive_profile(y), s, theta)
    f_xx = f_yy = f_xy = 0.0
    for a, b in zip(ex, ey):
        f_xx += a * a
        f_yy += b * b
        f_xy += a * b
    return f_xy / math.sqrt(f_xx * f_yy)


def _capped(f_x, f_y, f_xy):
    rho = f_xy / math.sqrt(f_x * f_y)
    if abs(rho) > 1.0:
        return 1.0 / rho
    return rho


def naive_rho(x, y, s, q, theta):
    f_x, f_y, f_xy, _ = naive_q_fluctuations(x, y, s, q, theta)
    return _capped(f_x, f_y, f_xy)


def naive_dcca_q_fluctuations(x, y, s, q):
    """(F_x^q, F_y^q, F_xy^q, kept) of the box-splitting method.

    floor(N/s) boxes of s profile points are cut from the start and as many
    from the end, and the two sets are pooled.  Each box loses the
    least-squares line through it, fitted with lstsq on the design [1, t];
    at q < 0 a box where either RMS is zero is skipped, and kept counts the
    boxes averaged over.
    """
    N = len(x)
    n_box = N // s
    if n_box < 1:
        raise ValueError(f"scale {s} exceeds series length {N}")
    starts = [v * s for v in range(n_box)] + [N - (v + 1) * s for v in range(n_box)]
    design = np.array([[1.0, float(t)] for t in range(s)])

    def detrended(profile, start):
        box = np.array(profile[start : start + s])
        coef = np.linalg.lstsq(design, box, rcond=None)[0]
        return list(box - design @ coef)

    px, py = naive_profile(x), naive_profile(y)
    f_x = f_y = f_xy = 0.0
    kept = 0
    for start in starts:
        ex, ey = detrended(px, start), detrended(py, start)
        f_v_x = math.sqrt(sum(a * a for a in ex) / s)
        f_v_y = math.sqrt(sum(b * b for b in ey) / s)
        if q < 0 and (f_v_x == 0.0 or f_v_y == 0.0):
            continue
        cross = sum(a * b for a, b in zip(ex, ey)) / s
        f_x += f_v_x**q
        f_y += f_v_y**q
        f_xy += math.copysign(abs(cross) ** (q / 2.0), cross)
        kept += 1
    return f_x / kept, f_y / kept, f_xy / kept, kept


def naive_dcca_rho(x, y, s, q):
    f_x, f_y, f_xy, _ = naive_dcca_q_fluctuations(x, y, s, q)
    return _capped(f_x, f_y, f_xy)
