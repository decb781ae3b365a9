"""Seeded simulation of piecewise ARMA processes and the built-in benchmark models.

Coefficients here use the generating convention

    x[t] = ar_1 x[t-1] + ... + ar_p x[t-p] + e[t] + ma_1 e[t-1] + ... + ma_q e[t-q]

with ``e[t] ~ N(0, noise_sd**2)``.  The fitting module (:mod:`arcpd.ar`)
uses the same sign: an AR(1) generated with ``ar=(0.7,)`` has Levinson
predictor coefficient ``phi[0, 0] ~= 0.7``.

Reproducibility: draws come from a Philox counter-based generator keyed by
``numpy.random.SeedSequence``.  ``simulate_piecewise(spec, seed)`` is
bit-identical for identical inputs; independent replicate streams are
derived as ``SeedSequence(seed, spawn_key=(replicate,))`` (see
:func:`replicate_seed`).

The ARMA recursion runs on Python floats, one segment at a time.  Each step
adds the same IEEE double terms in the same order as a per-sample loop over
numpy scalars (the innovation, then AR lags 1..p, then MA lags 1..q, lags
before the first sample skipped), so the series are byte for byte the same,
signed zeros of a zero-noise regime included; ``tests/test_simulate.py`` pins
their sha256 digests and keeps that loop as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArmaSpec",
    "PiecewiseSpec",
    "BURN_IN",
    "simulate_piecewise",
    "builtin_model",
    "builtin_model_names",
    "replicate_seed",
    "MODEL_A_COEFFS",
]

# Discarded zero-state prefix generated with the first segment's parameters.
BURN_IN = 512

MODEL_A_COEFFS = (-0.7, -0.1, 0.4, 0.7)


@dataclass(frozen=True)
class ArmaSpec:
    """One stationary ARMA regime (generating convention, see module docstring)."""

    ar: tuple[float, ...] = ()
    ma: tuple[float, ...] = ()
    noise_sd: float = 1.0

    def __post_init__(self):
        if not all(np.isfinite(self.ar)) or not all(np.isfinite(self.ma)):
            raise ValueError("ARMA coefficients must be finite")
        if not self.noise_sd >= 0.0:
            raise ValueError("noise_sd must be >= 0")


@dataclass(frozen=True)
class PiecewiseSpec:
    """Ordered regimes with 1-based inclusive segment ends; the last end is T."""

    segments: tuple[tuple[ArmaSpec, int], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("need at least one segment")
        prev = 0
        for _, end in self.segments:
            if end <= prev:
                raise ValueError("segment ends must be strictly increasing")
            prev = end

    @property
    def total_length(self) -> int:
        return self.segments[-1][1]

    @property
    def true_cps(self) -> tuple[int, ...]:
        """Interior segment ends: change point k means segments split as [..k], [k+1..]."""
        return tuple(end for _, end in self.segments[:-1])


def replicate_seed(seed: int, replicate: int) -> np.random.SeedSequence:
    """Independent per-replicate stream derived from (master seed, index)."""
    return np.random.SeedSequence(seed, spawn_key=(replicate,))


def _rng(seed) -> np.random.Generator:
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(ss))


def simulate_piecewise(spec: PiecewiseSpec, seed) -> np.ndarray:
    """Generate one series from a piecewise ARMA spec, deterministically per seed.

    State (lagged observations and innovations) carries continuously across
    segment boundaries; a BURN_IN-point prefix using the first segment's
    parameters, started from zero state, is generated and discarded.

    `seed` is an int or a numpy SeedSequence.
    """
    # Padded end of every segment; the burn-in belongs to segment 0.
    ends = [BURN_IN + end for _, end in spec.segments]
    sds = np.repeat([arma.noise_sd for arma, _ in spec.segments], np.diff(ends, prepend=0))
    eps = (sds * _rng(seed).standard_normal(ends[-1])).tolist()

    # Python floats: the numpy-scalar steps at a fraction of the cost (module docstring).
    x: list[float] = []
    start = 0
    for (arma, _), stop in zip(spec.segments, ends):
        ar = tuple(enumerate(arma.ar, start=1))
        ma = tuple(enumerate(arma.ma, start=1))
        for t in range(start, stop):
            acc = eps[t]
            for j, a in ar:
                if t >= j:
                    acc += a * x[t - j]
            for k, b in ma:
                if t >= k:
                    acc += b * eps[t - k]
            x.append(acc)
        start = stop
    return np.array(x[BURN_IN:])


def _piecewise(*segments: tuple[ArmaSpec, int]) -> PiecewiseSpec:
    return PiecewiseSpec(segments=tuple(segments))


def _model_a(coeff: float) -> PiecewiseSpec:
    if not any(abs(coeff - b) < 1e-12 for b in MODEL_A_COEFFS):
        raise ValueError(
            f"model A coefficient must be one of {MODEL_A_COEFFS}, got {coeff}"
        )
    return _piecewise((ArmaSpec(ar=(coeff,)), 1024))


_BUILTINS = {
    "B": lambda: _piecewise(
        (ArmaSpec(ar=(0.9,)), 512),
        (ArmaSpec(ar=(1.69, -0.81)), 768),
        (ArmaSpec(ar=(1.32, -0.81)), 1024),
    ),
    "C": lambda: _piecewise(
        (ArmaSpec(ar=(0.4,)), 400),
        (ArmaSpec(ar=(-0.6,)), 612),
        (ArmaSpec(ar=(0.5,)), 1024),
    ),
    "D": lambda: _piecewise(
        (ArmaSpec(ar=(0.75,)), 50),
        (ArmaSpec(ar=(-0.5,)), 1024),
    ),
    "E": lambda: _piecewise(
        (ArmaSpec(ar=(0.999,)), 400),
        (ArmaSpec(ar=(0.999,), noise_sd=1.5), 750),
        (ArmaSpec(ar=(0.999,)), 1024),
    ),
    "F": lambda: _piecewise(
        (ArmaSpec(ar=(1.399, -0.4)), 400),
        (ArmaSpec(ar=(0.999,), noise_sd=1.5), 750),
        (ArmaSpec(ar=(0.699, 0.3)), 1024),
    ),
    "G": lambda: _piecewise(
        (ArmaSpec(ar=(0.7,)), 125),
        (ArmaSpec(ar=(0.3,)), 532),
        (ArmaSpec(ar=(0.9,)), 704),
        (ArmaSpec(ar=(0.1,)), 1024),
    ),
    "H": lambda: _piecewise(
        (ArmaSpec(ar=(0.7,), ma=(0.6,)), 125),
        (ArmaSpec(ar=(0.3,), ma=(0.3,)), 532),
        (ArmaSpec(ar=(0.9,)), 704),
        (ArmaSpec(ar=(0.1,), ma=(-0.5,)), 1024),
    ),
    "I": lambda: _piecewise(
        (ArmaSpec(ma=(0.8,)), 128),
        (ArmaSpec(ma=(1.68, -0.81)), 256),
    ),
}


def builtin_model_names() -> tuple[str, ...]:
    """Accepted `builtin_model` names (model A written as e.g. `A:0.4`)."""
    a_names = tuple(f"A:{b:g}" for b in MODEL_A_COEFFS)
    return a_names + tuple(sorted(_BUILTINS))


def builtin_model(name: str) -> PiecewiseSpec:
    """Look up a benchmark model by name.

    Models B-I take no parameter.  Model A is a single stationary AR(1)
    regime (no change points) named with its coefficient, as ``"A:0.4"``.
    """
    key, colon, inline = name.strip().partition(":")
    key = key.strip().upper()
    if colon and key != "A":
        raise ValueError(f"only model A takes a parameter, got {name!r}")
    if key == "A":
        if not colon:
            raise ValueError(
                f"model A needs a coefficient from {MODEL_A_COEFFS}, e.g. 'A:0.4'"
            )
        try:
            coeff = float(inline)
        except ValueError:
            raise ValueError(f"bad model A coefficient {inline!r}") from None
        return _model_a(coeff)
    try:
        return _BUILTINS[key]()
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; expected one of "
            f"A:<coeff>, {', '.join(sorted(_BUILTINS))}"
        ) from None
