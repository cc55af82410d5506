"""Synthetic credit-register scenarios with known ground truth.

The generator prescribes a sinusoidal default-rate path, derives the
growth rate from the steady-state relation (plus optional Gaussian noise
on f only), and rolls the credit stock forward with

    tcu_k = tcu_{k-1} * (1 - d_k) * (1 + f_k)
    abd_k = d_k * tcu_{k-1}
    loans_k = f_k * tcu_{k-1} * (1 - d_k)

so the rates module recovers the prescribed (d, f) exactly. Quarters with
negative growth leave the loans column empty (disbursements cannot be
negative); the balance identity covers those intervals. Output is
deterministic given the scenario, including its seed: the noise is
``numpy.random.default_rng(seed).normal(0.0, noise_sigma, n_quarters - 1)``,
numpy's PCG64 generator and ziggurat normal, which ``_pcg64`` draws bit for
bit without importing numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple, get_type_hints

from . import _pcg64
from .errors import InvariantError, ParseError
from .rates import F_SOURCE_BALANCE, F_SOURCE_LOANS, RatePoint, RateSeries
from .series import (CreditObservation, CreditSeries, Quarter, number, number_text, shown,
                     typed, validated)

HYPOTHESIS_NULL = "H0"
HYPOTHESIS_STEADY_STATE = "H1"


@validated
class Scenario(NamedTuple):
    n_quarters: int
    start: Quarter
    tcu0: float
    d_base: float
    d_amp: float
    d_period_quarters: int
    zeta_true: float
    noise_sigma: float
    hypothesis: str
    seed: int

    def _checked(self):
        for (name, kind), value in zip(_KINDS.items(), self):
            if kind is float:
                number(name, value)
            elif kind is not str:  # hypothesis, checked against its two values below
                typed(name, value, kind)
        if self.n_quarters < 3:
            raise InvariantError(f"need at least 3 quarters, got {shown(self.n_quarters)}")
        most = Quarter(9999, 4).index - self.start.index + 1  # quarters up to 9999-Q4
        if self.n_quarters > most:
            raise InvariantError(
                f"n_quarters from {self.start} must be <= {most}, got {shown(self.n_quarters)}")
        if not self.tcu0 > 0.0:
            raise InvariantError(f"tcu0 must be positive, got {self.tcu0}")
        if self.d_base - self.d_amp < 0.0 or self.d_base + self.d_amp >= 1.0:
            raise InvariantError(
                f"default rate range [{self.d_base - self.d_amp}, "
                f"{self.d_base + self.d_amp}] must stay within [0, 1)"
            )
        if self.d_period_quarters < 1:
            raise InvariantError(f"cycle length must be >= 1, got {shown(self.d_period_quarters)}")
        if self.noise_sigma < 0.0:
            raise InvariantError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.hypothesis not in (HYPOTHESIS_NULL, HYPOTHESIS_STEADY_STATE):
            raise InvariantError(f"hypothesis must be H0 or H1, got {self.hypothesis!r}")
        if self.seed < 0:
            raise InvariantError(f"seed must be >= 0, got {shown(self.seed)}")
        return self


# the one table of the fields' kinds, read by _checked and parse_scenario
_KINDS = get_type_hints(Scenario)


def generate(sc: Scenario) -> tuple[CreditSeries, RateSeries]:
    """Build the series and the ground-truth rates it encodes."""
    typed("sc", sc, Scenario)
    zeta = sc.zeta_true if sc.hypothesis == HYPOTHESIS_STEADY_STATE else 0.0
    n_intervals = sc.n_quarters - 1
    if sc.noise_sigma > 0.0:
        noise = _pcg64.normal(sc.seed, sc.noise_sigma, n_intervals)
    else:
        noise = [0.0] * n_intervals

    observations = [CreditObservation(sc.start, sc.tcu0, 0.0, None, None)]
    points = []
    tcu_prev = sc.tcu0
    for k in range(1, sc.n_quarters):
        d = sc.d_base + sc.d_amp * math.sin(2.0 * math.pi * k / sc.d_period_quarters)
        f = (d + zeta) / (1.0 - d) + noise[k - 1]
        if f <= -1.0:
            raise InvariantError(
                f"generated f={f} <= -1 at interval {k} (seed {sc.seed}); reduce noise_sigma"
            )
        quarter = sc.start.shift(k)
        abd = d * tcu_prev
        surviving = tcu_prev * (1.0 - d)
        loans = f * surviving if f >= 0.0 else None
        tcu = surviving * (1.0 + f)
        observations.append(CreditObservation(quarter, tcu, abd, loans, None))
        source = F_SOURCE_LOANS if loans is not None else F_SOURCE_BALANCE
        points.append(RatePoint(quarter, d, f, source))
        tcu_prev = tcu

    series = CreditSeries(tuple(observations))
    return series, RateSeries(tuple(points))


def parse_scenario(text: str, seed: int | None = None) -> Scenario:
    """Parse a key=value scenario description.

    Blank lines and ``#`` comments are ignored. ``seed`` may be supplied
    in the text or as the argument (the argument wins). A line ends at a
    line feed, a carriage return, or the two in turn, and at nothing else.
    """
    typed("text", text, str)
    values: dict[str, object] = {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {raw!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key not in _KINDS:
                raise ParseError(f"unknown scenario key {key!r}")
            kind = _KINDS[key]
            values[key] = (Quarter.parse(value) if kind is Quarter
                           else value if kind is str else kind(number_text(value)))
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
        except ValueError:
            raise ParseError(f"bad value for {key}: {value!r}", lineno) from None
    if seed is not None:
        values["seed"] = seed
    required = set(Scenario._fields)
    missing = sorted(required - values.keys())
    if missing:
        raise ParseError(f"scenario is missing keys: {', '.join(missing)}")
    return Scenario(**values)  # type: ignore[arg-type]
