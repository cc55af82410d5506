"""Quarterly credit-register series: domain types, CSV reading and writing, validation.

A series is an ordered, gap-free list of end-of-quarter observations of the
total credit used (TCU), the new adjusted bad debt exposure (ABD), and the
optional gross loans disbursed and nominal GDP columns. All types are
immutable after construction and all operations are pure: observations are
a frozen dataclass, so ``dataclasses.replace`` validates anew, and the other
types are named tuples under ``@validated``, which run their ``_checked``
method on every construction, ``_make`` and ``_replace`` included.
``Window.positions`` is the one place that maps a window onto a run of
quarters, and ``CreditSeries.slice`` the one check of a window against a
series; a slice of a checked series is a contiguous run of it, so it is
built without checking it again.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import ContiguityError, InvariantError, ParseError, WindowError

CSV_HEADER = ("quarter", "tcu_eur", "abd_eur", "loans_eur", "gdp_eur")

_QUARTER_RE = re.compile(r"^([1-9]\d{3})-Q([1-4])$")


def validated(cls):
    """Make a named tuple run ``_checked`` on construction, ``_make`` and ``_replace``."""
    new = cls.__new__

    def __new__(c, *args, **kwargs):
        return new(c, *args, **kwargs)._checked()

    cls.__new__ = __new__
    cls._make = classmethod(lambda c, iterable: c(*iterable))
    return cls


@validated
class Quarter(NamedTuple):
    """A calendar quarter of a four-digit year, ordered lexicographically by (year, q)."""

    year: int
    q: int

    def _checked(self):
        year, q = self
        # a bool is an int subclass, but Quarter(2008, True) is no quarter
        if not (isinstance(year, int) and isinstance(q, int)) or bool in (type(year), type(q)):
            raise InvariantError(f"quarter fields must be integers, got {year!r}-Q{q!r}")
        if q not in (1, 2, 3, 4):
            raise InvariantError(f"quarter number must be in 1..4, got {q}")
        # so that every quarter prints as text that ``parse`` reads back
        if not 1000 <= year <= 9999:
            raise InvariantError(f"quarter year must be in 1000..9999, got {year}")
        return self

    @classmethod
    def parse(cls, text: str) -> "Quarter":
        m = _QUARTER_RE.match(text.strip())
        if m is None:
            raise ParseError(f"bad quarter {text!r}, expected YYYY-Qn")
        return cls(int(m.group(1)), int(m.group(2)))

    @classmethod
    def from_index(cls, index: int) -> "Quarter":
        return cls(index // 4, index % 4 + 1)

    @property
    def index(self) -> int:
        """Position on the absolute quarter axis; successor of (y,4) is (y+1,1)."""
        return self.year * 4 + self.q - 1

    def shift(self, quarters: int) -> "Quarter":
        return Quarter.from_index(self.index + quarters)

    def __str__(self) -> str:
        return f"{self[0]}-Q{self[1]}"


@dataclass(frozen=True)
class CreditObservation:
    """End-of-quarter snapshot of the credit register, amounts in euros."""

    quarter: Quarter
    tcu: float
    abd: float
    loans: float | None = None
    gdp: float | None = None

    def __post_init__(self):
        for name in ("tcu", "abd", "loans", "gdp"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvariantError(f"{self.quarter}: {name} must be finite, got {value}")
        if not self.tcu > 0:
            raise InvariantError(f"{self.quarter}: tcu must be > 0, got {self.tcu}")
        if self.abd < 0:
            raise InvariantError(f"{self.quarter}: abd must be >= 0, got {self.abd}")
        if self.loans is not None and self.loans < 0:
            raise InvariantError(f"{self.quarter}: loans must be >= 0, got {self.loans}")
        if self.gdp is not None and not self.gdp > 0:
            raise InvariantError(f"{self.quarter}: gdp must be > 0, got {self.gdp}")


@validated
class Window(NamedTuple):
    """Half-open or closed span of quarters used to select an analysis sample."""

    start: Quarter
    end: Quarter
    start_inclusive: bool = True
    end_inclusive: bool = True

    def _checked(self):
        if not self.start < self.end:
            raise WindowError(f"window start {self.start} must precede end {self.end}")
        return self

    def positions(self, first_index: int) -> slice:
        """Positions of the window's quarters in a run of quarters whose first
        has index ``first_index``, clamped at 0; the stop may pass the run's end."""
        start, end, start_inclusive, end_inclusive = self
        return slice(max(start.index + (not start_inclusive) - first_index, 0),
                     max(end.index - (not end_inclusive) + 1 - first_index, 0))

    def __str__(self) -> str:
        lo = "[" if self.start_inclusive else "("
        hi = "]" if self.end_inclusive else ")"
        return f"{lo}{self.start}..{self.end}{hi}"


@validated
class CreditSeries(NamedTuple):
    """Contiguous quarterly observations; at least one interval."""

    observations: tuple[CreditObservation, ...]

    def _checked(self):
        obs = self.observations
        if type(obs) is not tuple:
            return CreditSeries(tuple(obs))
        if len(obs) < 2:
            raise InvariantError(f"series needs at least 2 observations, got {len(obs)}")
        base = obs[0].quarter.index
        for i, o in enumerate(obs):
            if o.quarter.index != base + i:
                if o.quarter.index > base + i:
                    raise ContiguityError(
                        f"missing quarter {Quarter.from_index(base + i)} before {o.quarter}")
                # the quarter expected here may lie past 9999-Q4
                raise ContiguityError(f"quarters out of order at {o.quarter}, "
                                      f"after {obs[i - 1].quarter}")
        for prev, cur in zip(obs, obs[1:]):
            # default rate abd / previous tcu must stay strictly below 1
            if not cur.abd < prev.tcu:
                raise InvariantError(
                    f"{cur.quarter}: abd {cur.abd} must be strictly below previous tcu {prev.tcu}"
                )
        return self

    def __len__(self) -> int:
        return len(self.observations)

    @property
    def first_quarter(self) -> Quarter:
        return self.observations[0].quarter

    @property
    def last_quarter(self) -> Quarter:
        return self.observations[-1].quarter

    def quarters(self) -> list[Quarter]:
        return [o.quarter for o in self.observations]

    def tcu_values(self) -> list[float]:
        return [o.tcu for o in self.observations]

    def has_gdp(self) -> bool:
        """Whether any quarter carries GDP (``credit_gap`` refuses a partial column)."""
        return any(o.gdp is not None for o in self.observations)

    def slice(self, window: Window) -> "CreditSeries":
        """Sub-series of the observations inside the window.

        Every window quarter must lie within the series span and the result
        must itself be a valid series (contiguous, at least two observations).
        """
        kept = self.observations[window.positions(self.first_quarter.index)]
        # counted from its own start, a window's positions span all its quarters
        own = window.positions(window.start.index)
        if len(kept) < own.stop - own.start:
            raise WindowError(
                f"slice {window.start}..{window.end} outside series span "
                f"{self.first_quarter}..{self.last_quarter}"
            )
        if not kept:
            raise WindowError(f"slice {window} selects no observations")
        if len(kept) < 2:
            raise WindowError(f"slice {window} selects a single observation; need at least 2")
        # a contiguous run of a checked series is valid as it is
        return tuple.__new__(CreditSeries, (kept,))


def _parse_amount(field: str, column: str, line: int, required: bool) -> float | None:
    text = field.strip()
    if not text:
        if required:
            raise ParseError(f"column {column} must not be empty", line)
        return None
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"column {column}: not a number: {text!r}", line) from None


def parse_csv(text: str) -> CreditSeries:
    """Parse the quarterly CSV format into a validated series.

    Expected header: ``quarter,tcu_eur,abd_eur,loans_eur,gdp_eur``. Amounts
    are decimal euros, scientific notation accepted; ``loans_eur`` and
    ``gdp_eur`` may be empty. Errors carry 1-based line numbers.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input, header row required", 1) from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise ParseError(f"bad header {header!r}, expected {','.join(CSV_HEADER)}", 1)

    observations = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(CSV_HEADER):
            raise ParseError(f"expected {len(CSV_HEADER)} fields, got {len(row)}", lineno)
        try:
            quarter = Quarter.parse(row[0])
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
        tcu = _parse_amount(row[1], "tcu_eur", lineno, required=True)
        abd = _parse_amount(row[2], "abd_eur", lineno, required=True)
        loans = _parse_amount(row[3], "loans_eur", lineno, required=False)
        gdp = _parse_amount(row[4], "gdp_eur", lineno, required=False)
        try:
            observations.append(CreditObservation(quarter, tcu, abd, loans, gdp))
        except InvariantError as exc:
            raise ParseError(str(exc), lineno) from None
    return CreditSeries(tuple(observations))


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return "" if value is None else str(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The one CSV writer: the header, then a line per row, each ending in ``\\n``.

    A float (``numpy.float64`` too) is written as the ``repr`` of its float
    value, None as an empty cell, anything else as ``str``, and none quoted.
    """
    return "".join(",".join(map(_cell, row)) + "\n" for row in (header, *rows))


def emit_csv(series: CreditSeries) -> str:
    """The series as CSV, which ``parse_csv`` reads back to every stored float bit-exactly."""
    return csv_text(CSV_HEADER, [
        [o.quarter] + [v if v is None else float(v) for v in (o.tcu, o.abd, o.loans, o.gdp)]
        for o in series.observations
    ])
