"""Joint bandwidth / quantization-bit allocation under per-device delay budgets.

Maximizes the alpha-fair utility of the per-device bit counts, where the
bits each device can afford are a concave increasing function of its
bandwidth slice (delay constraint active at the optimum). At the optimum each
device's marginal utility M_i(w) = U'(b_i(w)) b_i'(w) equals one bandwidth
price lambda, unless the device sits at its zero-bit floor or at its cap
(the budget less the other devices' floors).

The price comes from a bracketed Newton iteration on t = log lambda. At
each price every device's slice comes from safeguarded Newton on
log M_i(w) = t over [floor, cap], bisecting whenever a step leaves the
bracket, started from the slice's first-order prediction. Its last
derivative gives dw_i/dt, and their sum is the derivative of the budget
excess, so the outer step is a dual Newton step (Palomar and Chiang, IEEE
JSAC 2006). The first price is where the slices, linearised at their
equal-spare points, sum to the budget. Each zero-bit floor, the smallest w
with b_i(w) >= 0, comes from its closed form through the Lambert W function:
Newton in u = P/(w N0), started from W's asymptotic form, then an ulp walk.
At m = 5 a solve tries about 4.5 prices and evaluates the marginal about
65 times; the Illinois iteration on the price that this replaced tried about
9.4 and evaluated it about 180 times. Integer flooring and dropping of
devices below the bit floor follow.
Both b_i' and M_i read one slope of the rate, summed as a power series at
small x = P/(w N0), where its closed form cancels; a slope past the float
range fails the solve.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .quantizer import payload_bits
from .wireless import rate_bps

_LN2 = math.log(2.0)
_TINY = sys.float_info.min  # smallest positive normal float
_NEWTON_STEPS = 200     # per root; a safeguard, Newton needs a handful
_ULP_WALK = 64          # ulps walked from Newton's root of b(w); a safeguard, a few suffice
_W_REL_TOL = 1e-9       # Newton stops at a step below this share of w
_OUTER_REL_TOL = 1e-13  # price search stops at |sum w - w_total| below this share
_OUTER_STEPS = 200      # prices tried per solve; a safeguard
# below x = 0.1, 18 terms of the slope's series reach machine precision
_SERIES_CUTOFF = 0.1
_SERIES = tuple((-1) ** j * (j + 1) / (j + 2) for j in range(18))


class AllocationError(ValueError):
    """A device's bit count cannot be floored, or its floored allocation
    breaks its delay budget."""


def _check_number(name: str, value, integer: bool = False) -> None:
    kind, phrase = (numbers.Integral, "an integer") if integer else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{name} must be {phrase}, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # integers too
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class AllocProblem:
    gains: np.ndarray       # received power P_i * |h_i|^2 per device, watts
    taus: np.ndarray        # delay budgets, seconds
    w_total: float          # shared bandwidth, Hz
    alpha: float            # fairness coefficient, >= 0
    d: int                  # model dimension
    mu: int                 # bound-overhead bits per payload
    noise_psd: float        # W/Hz
    b_lower: int = 1

    def __post_init__(self):
        for name in ("gains", "taus"):
            try:
                arr = np.asarray(getattr(self, name), dtype=np.float64)
            except OverflowError:  # an integer beyond float range
                raise ValueError(f"{name} must be finite") from None
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a flat list of numbers")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        for name in ("w_total", "alpha", "noise_psd"):
            _check_number(name, getattr(self, name))
        for name in ("d", "mu", "b_lower"):
            _check_number(name, getattr(self, name), integer=True)
        if self.gains.size == 0:
            raise ValueError("need at least one device")
        if self.taus.shape != self.gains.shape:
            raise ValueError("need one delay budget per device")
        if np.any(self.gains <= 0) or np.any(self.taus <= 0):
            raise ValueError("gains and delay budgets must be positive")
        if self.w_total <= 0 or self.noise_psd <= 0:
            raise ValueError("w_total and noise_psd must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.d < 1 or self.mu < 0:
            raise ValueError("d must be >= 1 and mu >= 0")
        if self.b_lower < 1:
            raise ValueError("b_lower must be >= 1")

    @property
    def num_devices(self) -> int:
        return int(self.gains.size)

    def to_json(self) -> str:
        return json.dumps({
            "gains": self.gains.tolist(), "taus": self.taus.tolist(),
            "w_total": self.w_total, "alpha": self.alpha, "d": self.d,
            "mu": self.mu, "noise_psd": self.noise_psd, "b_lower": self.b_lower,
        })

    @classmethod
    def from_json(cls, text: str) -> "AllocProblem":
        """A JSON object with exactly the eight fields; anything else is a
        ValueError that names what is wrong."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError(f"problem must be a JSON object, got {type(d).__name__}")
        names = [f.name for f in fields(cls)]
        if unknown := sorted(set(d) - set(names)):
            raise ValueError(f"unknown problem keys: {unknown}")
        if missing := [name for name in names if name not in d]:
            raise ValueError(f"missing problem keys: {missing}")
        return cls(**d)


@dataclass
class AllocSolution:
    bandwidths: np.ndarray
    bits_continuous: np.ndarray
    bits_floored: np.ndarray
    dropped: set[int] = field(default_factory=set)
    log_price: float = -math.inf  # log of the bandwidth price, which over- and underflows
    kkt_residual: float = 0.0
    feasible: bool = True
    objective: float = -math.inf
    iterations: int = 0     # prices at which the slices were summed

    def to_json(self) -> str:
        """Standard JSON: a ``log_price`` or ``objective`` that is not finite
        (-inf when every device is dropped, or at the utility's limit) is
        written as null."""
        def finite(x: float) -> float | None:
            return x if math.isfinite(x) else None

        return json.dumps({
            "bandwidths": self.bandwidths.tolist(),
            "bits_continuous": self.bits_continuous.tolist(),
            "bits_floored": self.bits_floored.tolist(),
            "dropped": sorted(self.dropped),
            "log_price": finite(self.log_price),
            "kkt_residual": self.kkt_residual,
            "feasible": self.feasible,
            "objective": finite(self.objective),
            "iterations": self.iterations,
        })


def b_of_w(w: float, gain: float, tau: float, d: int, mu: int, noise_psd: float) -> float:
    """Continuous bit count affordable at bandwidth w with the delay binding."""
    return (tau * rate_bps(w, gain, noise_psd) - mu) / d - 1.0


def _slope(x: float) -> float:
    """ln 2 times d rate/d w at x = P/(w N0): log1p(x) - x/(1+x).

    The difference cancels at small x, so there the series
    x^2 sum_j (-1)^j (j+1)/(j+2) x^j is summed instead (Higham, Accuracy and
    Stability of Numerical Algorithms, 1.7).
    """
    if x < _SERIES_CUTOFF:
        s = 0.0
        for c in reversed(_SERIES):
            s = s * x + c
        slope = x * x * s
    else:
        slope = math.log1p(x) - x / (1.0 + x)
    if not slope >= _TINY:
        raise AllocationError(f"numerical breakdown: rate slope {slope:.3g} at x = {x:.3g}")
    return slope


def utility(x: float, alpha: float) -> float:
    """alpha-fair utility x^(1-alpha)/(1-alpha); log(x) at alpha = 1. Where
    that is no finite float (x = 0 at alpha >= 1, or a power beyond the float
    range at alpha > 1) it is its limit, -inf."""
    x = float(x)  # float arithmetic raises where numpy's would warn
    if x < 0:
        return -math.inf
    try:
        return math.log(x) if alpha == 1.0 else x ** (1.0 - alpha) / (1.0 - alpha)
    except (ValueError, ZeroDivisionError, OverflowError):
        return -math.inf


def _newton(fn, w: float, lo: float, hi: float) -> tuple[float, float]:
    """Root of ``fn``, increasing on [lo, hi], by Newton from w in [lo, hi].

    ``fn(w)`` returns the value and the derivative. Each evaluation narrows
    the bracket; a step that leaves it is replaced by bisection. Returns the
    root and the last derivative evaluated. Running out of steps fails the
    solve.
    """
    for _ in range(_NEWTON_STEPS):
        f, df = fn(w)
        if f < 0.0:
            lo = w
        elif f > 0.0:
            hi = w
        else:
            return w, df
        step = f / df
        if abs(step) <= _W_REL_TOL * w:
            return w - step, df
        w -= step
        if not lo < w < hi:
            w = 0.5 * (lo + hi)
    raise AllocationError(f"numerical breakdown: Newton took {_NEWTON_STEPS} steps "
                          f"without converging, at w = {w:.3g} Hz")


def _w_zero(p: AllocProblem, i: int) -> float:
    """Zero-bit floor: the smallest float w with b(w) >= 0, set by the device alone.

    With u = P/(w N0) and r = (d+mu) ln2/tau, b(w) = 0 reads log1p(u) = c u,
    c = r N0/P < 1, and w = r/(c u). The root is u = -W(-c e^-c)/c - 1, W the
    lower branch of the Lambert W function (Corless et al., "On the Lambert W
    function", Adv. Comput. Math. 5, 1996). Newton on h(u) = c u - log1p(u)
    starts from W's asymptotic form L1 - L2 + L2/L1 (L1 = ln c - c, L2 = ln -L1)
    in (1/c - 1, 1/c^2]: h is least at 1/c - 1, where h' = 0, and log1p(u) <
    sqrt(u) makes h(1/c^2) > 0. The ulps around its root are walked either way.
    """
    gain, tau, noise_psd = float(p.gains[i]), float(p.taus[i]), p.noise_psd
    r = (p.d + p.mu) / tau * _LN2
    c = r * noise_psd / gain
    if not (c < 1.0 and c * c >= _TINY):  # else the bracket is empty or not finite
        raise AllocationError(f"numerical breakdown: zero-bit floor at c = {c:.3g}")
    lo, hi, l1 = 1.0 / c - 1.0, 1.0 / c / c, math.log(c) - c
    start = max(-(l1 - math.log(-l1) * (1.0 - 1.0 / l1)) / c - 1.0, math.nextafter(lo, hi))
    w = r / (c * _newton(lambda u: (c * u - math.log1p(u), max(c - 1.0 / (1.0 + u), _TINY)),
                         start, lo, hi)[0])
    ok = b_of_w(w, gain, tau, p.d, p.mu, noise_psd) >= 0.0
    for _ in range(_ULP_WALK):
        nxt = math.nextafter(w, 0.0 if ok else math.inf)
        if (b_of_w(nxt, gain, tau, p.d, p.mu, noise_psd) >= 0.0) != ok:
            return w if ok else nxt
        w = nxt
    raise AllocationError(f"numerical breakdown: b(w) = 0 not within {_ULP_WALK} ulps of "
                          f"Newton's root, at w = {w:.3g} Hz")


def _log_marginal(w: float, gain: float, noise_psd: float, tau: float,
                  d: int, mu: int, alpha: float) -> tuple[float, float]:
    """log M(w) and its derivative M'(w)/M(w) = b''/b' - alpha b'/b.

    With x = P/(w N0), b' = tau/d _slope(x) / ln2 and
    b'' = -tau/d x^2 / (w (1+x)^2) / ln2. This is the analytic
    M' = U''(b) b'^2 + U'(b) b'' divided by M, the one marginal the price
    search, the price and the KKT residual all read.
    """
    x = gain / (w * noise_psd)
    q = x / (1.0 + x)
    slope = _slope(x)
    db = tau * slope / (d * _LN2)
    if not db >= _TINY:
        raise AllocationError(f"numerical breakdown: b'(w) = {db:.3g} at w = {w:.3g} Hz")
    dlog = -q * q / (w * slope)
    log_db = math.log(db)
    if alpha == 0.0:
        return log_db, dlog
    b = b_of_w(w, gain, tau, d, mu, noise_psd)
    if b <= 0.0:
        return math.inf, -1.0
    return (log_db - alpha * math.log(b),
            dlog - alpha * tau * slope / (d * _LN2 * b))


def _price_search(p: AllocProblem, kept: list[int], floors: list[float]
                  ) -> tuple[float, list[float], int]:
    """Log price t at which the slices sum to the budget, the slices, and
    the number of prices tried."""
    w_total = p.w_total
    devs = [(float(p.gains[i]), p.noise_psd, float(p.taus[i]), p.d, p.mu, p.alpha)
            for i in kept]
    need = sum(floors)
    spare = (w_total - need) / len(devs)

    def point(w: float, dev: tuple) -> tuple[float, float, float]:
        """A slice w, its log marginal, and dw/dt = 1/(d log M/dw) there."""
        val, dval = _log_marginal(w, *dev)
        return w, val, 1.0 / dval

    # a slice never exceeds its cap: the budget less the other floors
    caps = [point(w_total - need + f, dev) for f, dev in zip(floors, devs)]
    # with alpha > 0 the marginal is infinite at the zero-bit floor
    lows = [point(f, dev) if p.alpha == 0.0 else (f, math.inf, 0.0)
            for f, dev in zip(floors, devs)]
    # each slice starts at its equal-spare point
    ws, refs, dws = (list(col) for col in zip(*(point(f + spare, dev)
                                                 for f, dev in zip(floors, devs))))

    def excess(t: float) -> tuple[float, float]:
        """Budget excess at log price t, and its derivative in t."""
        slope = 0.0
        for j, dev in enumerate(devs):
            if t <= caps[j][1] or t >= lows[j][1]:
                ws[j], refs[j], dws[j] = caps[j] if t <= caps[j][1] else lows[j]
                # at the bound's own price the slice leaves it at this rate
                if t == refs[j]:
                    slope += dws[j]
            else:
                def fn(w, dev=dev):
                    val, dval = _log_marginal(w, *dev)
                    return t - val, -dval
                # Newton starts from the slice's first-order prediction
                w = ws[j] + (t - refs[j]) * dws[j]
                if not lows[j][0] < w < caps[j][0]:
                    w = ws[j]
                ws[j], df = _newton(fn, w, lows[j][0], caps[j][0])
                refs[j], dws[j] = t, -1.0 / df
                slope += dws[j]
        return sum(ws) - w_total, slope

    tol = _OUTER_REL_TOL * w_total
    # The price is at least every marginal at a cap and at most every
    # marginal at a floor. The equal-spare points sum to the budget, so at
    # the smallest marginal there every device takes at least its point, and
    # at the largest at most.
    t_lo = max(min(refs), max(c[1] for c in caps))
    t_hi = min(max(refs), max(f[1] for f in lows))
    # The first price is where the slices, linear in t through their
    # equal-spare points, sum to the budget; Newton on the excess follows. A
    # price past an end of the bracket goes to that end the first time (one
    # device may hold its cap and the rest their floors there, which no
    # interior price reaches), and to the midpoint after, as does a zero
    # slope (every slice pinned).
    t = nxt = sum(r * k for r, k in zip(refs, dws)) / sum(dws)
    fresh_lo = fresh_hi = True  # the ends are bounds, not prices tried
    steps = 0
    while steps < _OUTER_STEPS:
        if nxt <= t_lo and fresh_lo:
            nxt = t_lo
        elif nxt >= t_hi and fresh_hi:
            nxt = t_hi
        elif not t_lo < nxt < t_hi:
            nxt = 0.5 * (t_lo + t_hi)
            if not t_lo < nxt < t_hi:
                break
        t = nxt
        g, slope = excess(t)
        steps += 1
        if abs(g) <= tol:
            break
        if g > 0.0:
            t_lo, fresh_lo = t, False
        else:
            t_hi, fresh_hi = t, False
        nxt = t - g / slope if slope < 0.0 else math.nan
        if nxt == t:  # the root lies within an ulp of t
            break
    # The device whose slice moves most per unit of price, that is whose
    # marginal moves least per Hz, absorbs the remaining slack, so the budget
    # is spent exactly.
    j = min(range(len(devs)), key=lambda j: dws[j] if ws[j] > floors[j] else math.inf)
    ws[j] += w_total - sum(ws)
    return t, ws, steps


def objective_value(p: AllocProblem, bands: np.ndarray, kept: list[int]) -> float:
    total = 0.0
    for i in kept:
        b = b_of_w(bands[i], p.gains[i], p.taus[i], p.d, p.mu, p.noise_psd)
        total += utility(max(b, 0.0), p.alpha)
    return total


def solve_alloc(p: AllocProblem) -> AllocSolution:
    """Continuous alpha-fair solve, then flooring and dropping.

    Devices that cannot reach a positive bit count even with the whole
    budget are pre-dropped; one whose bit count there is not finite, or too
    large to floor to an int64, fails the solve (AllocationError). If the
    survivors' minimum bandwidths exceed the budget jointly, the neediest are
    pre-dropped until the rest fit. An overflow in the solver's float64 steps
    fails it too, as AllocationError.
    """
    try:
        return _solve(p)
    except ArithmeticError as e:
        raise AllocationError(f"numerical breakdown ({e})") from e


def _solve(p: AllocProblem) -> AllocSolution:
    n = p.num_devices
    bands = np.zeros(n)
    bits = np.zeros(n)
    dropped: set[int] = set()
    kept = []
    for i in range(n):
        # Python floats: an overflow gives inf without a numpy warning
        b_max = b_of_w(p.w_total, float(p.gains[i]), float(p.taus[i]), p.d, p.mu, p.noise_psd)
        if not b_max < 2.0**63:  # inf, or beyond the int64 the bits are floored to
            raise AllocationError(f"device {i}: bit count {b_max:.3g} at the whole "
                                  "bandwidth is not a finite number below 2**63")
        if b_max <= 0.0:
            dropped.add(i)
        else:
            kept.append(i)

    w_floor = {i: _w_zero(p, i) for i in kept}
    need = sum(w_floor[i] for i in kept)
    # neediest first; the sort is stable, so ties go in index order
    for worst in sorted(kept, key=lambda i: -w_floor[i]):
        if need <= p.w_total:
            break
        kept.remove(worst)
        dropped.add(worst)
        need -= w_floor[worst]
    if not kept:
        return AllocSolution(bandwidths=bands, bits_continuous=bits,
                             bits_floored=np.zeros(n, dtype=np.int64),
                             dropped=set(range(n)), feasible=False)

    floors = [w_floor[i] for i in kept]
    t, bands[kept], iterations = _price_search(p, kept, floors)
    for i in kept:
        bits[i] = b_of_w(bands[i], p.gains[i], p.taus[i], p.d, p.mu, p.noise_psd)
    sol = AllocSolution(bandwidths=bands, bits_continuous=bits,
                        bits_floored=np.zeros(n, dtype=np.int64), dropped=dropped,
                        log_price=t,
                        kkt_residual=kkt_residual(p, bands, t, kept, floors),
                        objective=objective_value(p, bands, kept), iterations=iterations)
    return floor_and_drop(p, sol)


def floor_and_drop(p: AllocProblem, sol: AllocSolution) -> AllocSolution:
    """Floor continuous bits, drop devices below the bit floor, re-verify delay."""
    floored = np.floor(sol.bits_continuous).astype(np.int64)
    dropped = set(sol.dropped)
    for i in range(p.num_devices):
        if i in dropped or floored[i] < p.b_lower:
            floored[i] = 0
            dropped.add(i)
            continue
        payload = payload_bits(p.d, int(floored[i]), p.mu)
        rate = rate_bps(sol.bandwidths[i], p.gains[i], p.noise_psd)
        if payload > p.taus[i] * rate * (1 + 1e-12):
            raise AllocationError(
                f"device {i}: floored payload violates its delay budget")
    sol.bits_floored = floored
    sol.dropped = dropped
    return sol


def kkt_residual(
    p: AllocProblem,
    bands: np.ndarray,
    log_lam: float,
    kept: list[int],
    w_floor: list[float],
) -> float:
    """Relative stationarity residual plus budget violation.

    Devices pinned at their zero-bit bandwidth floor only contribute when
    their marginal exceeds the price (their lower bound is active). The
    relative gap (M - lambda)/lambda is formed from log M and the log price,
    held below the overflow of exp, so a price below the smallest float
    (large alpha) is still measured.
    """
    res = 0.0
    for idx, i in enumerate(kept):
        if bands[i] <= 0:
            continue
        log_m = _log_marginal(float(bands[i]), float(p.gains[i]), p.noise_psd,
                              float(p.taus[i]), p.d, p.mu, p.alpha)[0]
        gap = math.expm1(min(log_m - log_lam, 700.0))
        at_floor = bands[i] <= w_floor[idx] * (1 + 1e-9)
        res = max(res, max(gap, 0.0) if at_floor else abs(gap))
    used = sum(bands[i] for i in kept)
    res += abs(used - p.w_total) / p.w_total
    return res
