"""Deterministic Gaussian repeated-measures simulation.

Each subject's response is y_i = X_i beta + L_i z_i with L_i the lower
Cholesky factor of the subject's covariance matrix and z_i independent
standard normals.

Reproducibility contract: subject i's normals come from a Philox4x64-10
counter generator keyed by the two 64-bit words (seed, i). Each raw 64-bit
word w becomes the uniform ((w >> 11) + 0.5) * 2**-53 as rounded in double
precision, except that the one value w >> 11 == 2**53 - 1, which rounds to
1.0, becomes 1 - 2**-53, the largest double below 1. Every uniform is thus
strictly inside (0, 1), and the standard normal inverse CDF maps it to a
finite draw. The stream therefore depends only on (seed, subject index),
never on how many subjects exist or in what order they are generated, so
identical specs give bit-identical datasets on the same platform. Across
platforms the draws also depend on the C library's log (the ndtri tails)
and y on the BLAS kernel behind the stacked mat-vec, so another libm or
BLAS build may change last bits; identity has been checked on one host
only (x86-64, glibc 2.36, numpy 2.4.6 with its bundled OpenBLAS).

The generator and the inverse CDF are written here in numpy, so simulation
needs no scipy. Philox is counter-based (Salmon et al. 2011), so every
subject's words come from one vectorised pass, bit-equal to
numpy.random.Philox(key=(seed, i)). The inverse CDF is a port of cephes
ndtri, bit-equal to scipy.special.ndtri; its tail logarithms come from libm
(math.log), as in cephes. simulate draws all subjects of a time template in
batches of _DRAW_CHUNK words and takes y = X beta + L z with one stacked
mat-vec, which rounds as each subject's L @ z, writing every subject's
rows straight into the dataset's flat columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Arma11Params,
    LearParams,
    _is_integer,
    arma11_covariance,
    build_grid,
    cholesky_lower,
    lear_covariance,
    validated_times,
)
from .errors import InvalidGrid, InvalidParams, InvalidSize
# DESIGN_RULES and rule_design are defined in model; both still resolve here.
from .model import DESIGN_RULES, RepeatedMeasuresData, rule_design

__all__ = ["SimSpec", "simulate", "standard_normals"]


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """Raw 64-bit words to uniforms strictly inside (0, 1).

    ((w >> 11) + 0.5) * 2**-53, with the top word, which rounds to 1.0,
    sent to 1 - 2**-53 instead; see the module reproducibility note.
    """
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return np.minimum(u, 1.0 - 2.0 ** -53)


# Philox4x64-10 round multipliers and Weyl key increments (Salmon et al.
# 2011), as in numpy.random.Philox.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_MASK64 = 2 ** 64 - 1
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x.

    numpy has no 128-bit integers, so the high word is assembled from the
    four products of 32-bit halves, none of which overflows 64 bits.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    lh, hl = m_lo * x_hi, m_hi * x_lo
    mid = ((m_lo * x_lo) >> _SHIFT32) + (lh & _LO32) + (hl & _LO32)
    hi = m_hi * x_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, x * np.uint64(m)


def _philox_words(seed: int, subjects: np.ndarray, n: int) -> np.ndarray:
    """First ``n`` raw words of each subject's stream, shape (subjects, n).

    Row r equals np.random.Philox(key=(seed, subjects[r])).random_raw(n):
    word 4b + j is output word j of the block whose counter is
    (b + 1, 0, 0, 0), since numpy bumps the counter before its first block.
    """
    blocks = -(-n // 4)
    shape = (subjects.size, blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    k0, k1 = seed, subjects.astype(np.uint64)[:, None]
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W0) & _MASK64
            k1 = k1 + np.uint64(_PHILOX_W1)
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(shape[0], 4 * blocks)[:, :n]


# cephes ndtri: P0/Q0 for |u - 0.5| <= 0.5 - exp(-2), then in
# z = 1/sqrt(-2 log y) P1/Q1 for y down to exp(-32) and P2/Q2 below it.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """cephes polevl: Horner's rule from the leading coefficient."""
    ans = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """cephes p1evl: polevl with an implied leading coefficient of 1."""
    ans = x + coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    # np.log's SIMD loops can differ from libm in the last bit; cephes
    # calls libm, so the port does too.
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Standard normal inverse CDF, the same bits as cephes ndtri.

    Only for u strictly inside (0, 1), as _uniforms gives: the endpoints
    and the domain checks of cephes are left out.
    """
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    out = np.empty_like(u)
    central = y > _EXP_M2
    c = y[central] - 0.5
    c2 = c * c
    out[central] = (c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))) * _S2PI
    tail = ~central
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = np.where(
        x < 8.0,
        z * _polevl(z, _P1) / _p1evl(z, _Q1),
        z * _polevl(z, _P2) / _p1evl(z, _Q2),
    )
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


# Draws made per batch; bounds the temporaries of simulate whatever the
# number of subjects. The output does not depend on it.
_DRAW_CHUNK = 1 << 16


def _normals(seed: int, subjects: np.ndarray, n: int) -> np.ndarray:
    """Standard normals of each subject's stream, shape (subjects, n)."""
    return _ndtri(_uniforms(_philox_words(seed, subjects, n)))


def _key_word(value, name: str) -> int:
    """``value`` as one 64-bit word of a Philox key."""
    if not _is_integer(value):
        raise InvalidParams(f"{name} must be an integer")
    if not 0 <= int(value) < 2 ** 64:
        raise InvalidParams(f"{name} must lie in [0, 2**64)")
    return int(value)


def standard_normals(seed: int, subject_index: int, n: int) -> np.ndarray:
    """Subject's standard normal draws; see the module reproducibility note.

    Raises:
        InvalidParams: seed or subject_index is not an integer in [0, 2**64).
        InvalidSize: n is not a non-negative integer.
    """
    seed = _key_word(seed, "seed")
    subject = _key_word(subject_index, "subject_index")
    if not _is_integer(n) or n < 0:
        raise InvalidSize(f"n must be a non-negative integer (got {n!r})")
    return _normals(seed, np.array([subject], dtype=np.uint64), int(n))[0]


@dataclass(frozen=True, eq=False)
class SimSpec:
    """What to simulate.

    ``times`` holds one or more time templates; subject i uses template
    i mod len(times), so unbalanced designs cycle through the templates.
    ``design`` is "intercept", "intercept-time", or a sequence of explicit
    design matrices aligned with the templates. ``covariance`` decides the
    generating structure: LearParams builds distance-based matrices on the
    pooled grid of the realized subjects; Arma11Params builds position-based
    matrices. ``n_subjects`` is at most 10**6: simulation keeps every
    subject's rows in memory.
    """

    n_subjects: int
    times: tuple
    beta: np.ndarray
    covariance: LearParams | Arma11Params
    seed: int
    design: str | tuple = "intercept"

    def __post_init__(self) -> None:
        if not _is_integer(self.n_subjects):
            raise InvalidSize("n_subjects must be an integer")
        if not 1 <= self.n_subjects <= 10 ** 6:
            raise InvalidSize(
                f"n_subjects must be in [1, 1000000] (got {self.n_subjects!r})"
            )
        raw_times = self.times
        if isinstance(raw_times, np.ndarray) and raw_times.ndim == 1:
            raw_times = (raw_times,)
        try:
            templates = tuple(
                validated_times(t, f"time template {i}")
                for i, t in enumerate(raw_times)
            )
        except TypeError as exc:
            raise InvalidGrid("times must be a sequence of time templates") from exc
        if not templates:
            raise InvalidGrid("need at least one time template")
        object.__setattr__(self, "times", templates)
        beta = np.array(self.beta, dtype=float)
        if beta.ndim != 1 or beta.size == 0 or not np.all(np.isfinite(beta)):
            raise InvalidSize("beta must be a nonempty finite 1-d array")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        if not isinstance(self.covariance, (LearParams, Arma11Params)):
            raise InvalidParams(
                "covariance must be a LearParams or Arma11Params instance"
            )
        object.__setattr__(self, "seed", _key_word(self.seed, "seed"))
        design = self.design
        if isinstance(design, str):
            q = rule_design(design, templates[0]).shape[1]
        else:
            mats = tuple(np.array(m, dtype=float) for m in design)
            if len(mats) != len(templates):
                raise InvalidSize(
                    f"got {len(mats)} design matrices for {len(templates)} "
                    f"time templates"
                )
            q = None
            for i, (m, t) in enumerate(zip(mats, templates)):
                if m.ndim != 2 or m.shape[0] != t.size:
                    raise InvalidSize(
                        f"design matrix {i} has shape {m.shape}, expected "
                        f"({t.size}, q)"
                    )
                if not np.all(np.isfinite(m)):
                    raise InvalidSize(f"design matrix {i} contains non-finite values")
                if q is None:
                    q = m.shape[1]
                elif m.shape[1] != q:
                    raise InvalidSize("design matrices must share a column count")
                m.setflags(write=False)
            if q == 0:
                raise InvalidSize("design matrices need at least one column")
            object.__setattr__(self, "design", mats)
        if beta.size != q:
            raise InvalidSize(
                f"beta has length {beta.size} but the design has {q} columns"
            )

    def design_matrix(self, template_index: int) -> np.ndarray:
        if isinstance(self.design, str):
            return rule_design(self.design, self.times[template_index])
        return self.design[template_index]


def simulate(spec: SimSpec) -> RepeatedMeasuresData:
    """Draw a dataset from ``spec``; same spec, same bytes, every time."""
    n_templates = len(spec.times)
    subject_template = [i % n_templates for i in range(spec.n_subjects)]

    used = sorted(set(subject_template))
    factors: dict[int, np.ndarray] = {}
    if isinstance(spec.covariance, LearParams):
        grid = build_grid([spec.times[k] for k in used])
        for pos, k in enumerate(used):
            factors[k] = cholesky_lower(lear_covariance(spec.covariance, grid, pos))
    else:
        for k in used:
            factors[k] = cholesky_lower(
                arma11_covariance(spec.covariance, spec.times[k].size)
            )
    designs = {k: spec.design_matrix(k) for k in used}

    # Subject i owns rows offsets[i]:offsets[i + 1] of the flat columns.
    sizes = [spec.times[k].size for k in subject_template]
    offsets = np.cumsum([0, *sizes])
    times = np.empty(offsets[-1])
    y = np.empty(offsets[-1])
    X = np.empty((offsets[-1], spec.beta.size))

    # Draw a template's subjects together, _DRAW_CHUNK words at a time. The
    # stacked mat-vec rounds as the per-subject L @ z does; Z @ L.T would not.
    for k in used:
        p = spec.times[k].size
        rows = offsets[k:-1:n_templates, None] + np.arange(p)
        times[rows] = spec.times[k]
        X[rows] = designs[k]
        mean = designs[k] @ spec.beta
        subjects = np.arange(k, spec.n_subjects, n_templates, dtype=np.uint64)
        step = max(1, _DRAW_CHUNK // p)
        for lo in range(0, subjects.size, step):
            Z = _normals(spec.seed, subjects[lo:lo + step], p)
            y[rows[lo:lo + step]] = (
                mean + np.matmul(factors[k], Z[:, :, None])[..., 0]
            )
    if not np.isfinite(y).all():
        raise InvalidSize("y and X must be finite")
    return RepeatedMeasuresData._from_columns(times, y, X, offsets)
