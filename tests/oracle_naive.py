"""Brute-force reference implementations of the moving-average coefficients.

Deliberately written with explicit loops, 1-based index arithmetic and no
numpy, so it cannot share bugs with the vectorized engine.  Only suitable
for short series.
"""

import math


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


def naive_rho(x, y, s, q, theta):
    f_x, f_y, f_xy, _ = naive_q_fluctuations(x, y, s, q, theta)
    rho = f_xy / math.sqrt(f_x * f_y)
    if abs(rho) > 1.0:
        return 1.0 / rho
    return rho
