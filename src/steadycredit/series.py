"""Quarterly credit-register series: domain types, CSV reading and writing, validation.

A series is an ordered, gap-free list of end-of-quarter observations of the
total credit used (TCU), the new adjusted bad debt exposure (ABD), and the
optional gross loans disbursed and nominal GDP columns. All types are
immutable after construction and all operations are pure: observations are
a frozen dataclass, so ``dataclasses.replace`` validates anew, and the other
types are named tuples under ``@validated``, which run their ``_checked``
method on every construction, ``_make`` and ``_replace`` included.
``number`` is the one rule for a record's float field and for every number a
public function takes, ``typed`` for an int, bool or ``Quarter`` field and a
record or text argument, and ``number_text`` for a number in text (ASCII, no ``_``).
``shown`` is the one text of a value in a message, an int past ``str``'s limit too;
``typed`` shows a refused value by a ``repr`` cut short, whatever its size.
``floats`` reads an estimator's sample by ``number``, value by value: text,
bytes or a non-iterable is the caller's EstimationError, another kind of
number (a numpy scalar, a Fraction, a Decimal, never a bool) is read by
``float()`` first, and a value that is then no int or float a float holds
finitely is ``number``'s InvariantError naming its index. ``fsum`` is
``math.fsum``, whose single rounding makes a sum independent of the order of
its terms, with its overflow and inf - inf failures as EstimationError. A
float product that overflows still yields inf, so ``finite``, the one rule for
what a public function returns, names a record's non-finite float field.
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
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import ContiguityError, EstimationError, InvariantError, ParseError, WindowError

CSV_HEADER = ("quarter", "tcu_eur", "abd_eur", "loans_eur", "gdp_eur")

_QUARTER_RE = re.compile(r"^([1-9][0-9]{3})-Q([1-4])$")
_FLOAT_MAX = sys.float_info.max


def validated(cls):
    """Make a named tuple run ``_checked`` on construction, ``_make`` and ``_replace``."""
    new = cls.__new__

    def __new__(c, *args, **kwargs):
        return new(c, *args, **kwargs)._checked()

    cls.__new__ = __new__
    cls._make = classmethod(lambda c, iterable: c(*iterable))
    return cls


def shown(value, text=str) -> str:
    """``text(value)`` in a message, or the size of an int too long for a decimal text;
    only an int no check has bounded needs it, never a value ``number`` accepted."""
    try:
        return text(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


def number(name: str, value, where=None) -> None:
    """Refuse a field or argument that is not an int or float (no bool) a float holds finitely."""
    is_number = type(value) is not bool and isinstance(value, (int, float))
    if not (is_number and -_FLOAT_MAX <= value <= _FLOAT_MAX):
        problem = (f"must be finite, got {shown(value)}" if is_number
                   else f"must be a number, got {value!r}")
        raise InvariantError(f"{name} {problem}" if where is None else f"{where}: {name} {problem}")


def typed(name: str, value, kind: type) -> None:
    """Refuse a field or argument not a ``kind``; a bool, an int subclass, is one only of bool."""
    if not isinstance(value, kind) or (type(value) is bool and kind is not bool):
        import reprlib  # used on this error path only
        brief = reprlib.Repr()  # a list, tuple or dict shows its first items, two levels deep
        brief.maxlevel, brief.maxlist, brief.maxtuple, brief.maxdict = 2, 3, 3, 2
        article = {int: "an integer", bool: "a bool"}.get(
            kind, f"a{'n' * (kind.__name__[0] in 'AEIOU')} {kind.__name__}")
        raise InvariantError(f"{name} must be {article}, got {shown(value, brief.repr)}")


def number_text(text: str) -> str:
    """The text, or ValueError if ``float``/``int`` would read a ``_`` or non-ASCII digit in it."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return text


def fsum(values: Iterable[float]) -> float:
    """``math.fsum`` with its overflow and inf - inf failures as EstimationError."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise EstimationError("sum overflows the float range") from None
    except ValueError:
        raise EstimationError("sum adds +inf and -inf") from None


def finite(record):
    """The record, or EstimationError naming its first float field that is not finite."""
    for field, value in zip(record._fields, record):
        if isinstance(value, float) and not math.isfinite(value):
            raise EstimationError(f"{field} is not finite, got {value}")
    return record


def floats(values: Iterable[float], message: str) -> list[float]:
    """The values as finite floats; text, bytes or a non-iterable is EstimationError(message)."""
    if isinstance(values, (str, bytes, bytearray, memoryview)):
        raise EstimationError(message)  # list() would read its characters or bytes
    try:
        xs = list(values)
    except TypeError:
        raise EstimationError(message) from None
    if set(map(type, xs)) <= {float} and all(map(math.isfinite, xs)):
        return xs
    from numbers import Number  # here, so that the all-float samples of every command skip it
    for i, v in enumerate(xs):
        if isinstance(v, Number) and not isinstance(v, (int, float)):  # numpy.int64, Fraction
            try:
                xs[i] = v = float(v)
            except OverflowError:  # a huge Fraction is an infinity, as a huge Decimal is
                xs[i] = v = math.inf if v > 0 else -math.inf
            except (TypeError, ValueError):  # a complex, a signalling NaN: number refuses it
                pass
        number(f"value at index {i}", v)
    return list(map(float, xs))


@validated
class Quarter(NamedTuple):
    """A calendar quarter of a four-digit year, ordered lexicographically by (year, q)."""

    year: int
    q: int

    def _checked(self):
        year, q = self
        typed("year", year, int)
        typed("q", q, int)
        if q not in (1, 2, 3, 4):
            raise InvariantError(f"quarter number must be in 1..4, got {shown(q)}")
        # so that every quarter prints as text that ``parse`` reads back
        if not 1000 <= year <= 9999:
            raise InvariantError(f"quarter year must be in 1000..9999, got {shown(year)}")
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
        typed("quarter", self.quarter, Quarter)
        for name in ("tcu", "abd", "loans", "gdp"):
            if name in ("tcu", "abd") or getattr(self, name) is not None:
                number(name, getattr(self, name), self.quarter)
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
        for name, kind, value in zip(self._fields, (Quarter, Quarter, bool, bool), self):
            typed(name, value, kind)
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


def _parse_amount(field: str, column: str, required: bool) -> float | None:
    text = field.strip()
    if not text:
        if required:
            raise ParseError(f"column {column} must not be empty")
        return None
    try:
        return float(number_text(text))
    except ValueError:
        raise ParseError(f"column {column}: not a number: {text!r}") from None


def parse_csv(text: str) -> CreditSeries:
    """Parse the quarterly CSV format into a validated series.

    Expected header: ``quarter,tcu_eur,abd_eur,loans_eur,gdp_eur``. Amounts
    are decimal euros, scientific notation accepted; ``loans_eur`` and
    ``gdp_eur`` may be empty. A header or record error, the csv module's own
    too, names the physical line it stopped on (line 1 for an empty input).
    """
    typed("text", text, str)
    reader = csv.reader(io.StringIO(text, newline=""))
    observations = []
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty input, header row required")
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise ParseError(f"bad header {header!r}, expected {','.join(CSV_HEADER)}")
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(CSV_HEADER):
                raise ParseError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
            quarter = Quarter.parse(row[0])
            tcu = _parse_amount(row[1], "tcu_eur", required=True)
            abd = _parse_amount(row[2], "abd_eur", required=True)
            loans = _parse_amount(row[3], "loans_eur", required=False)
            gdp = _parse_amount(row[4], "gdp_eur", required=False)
            observations.append(CreditObservation(quarter, tcu, abd, loans, gdp))
    except (csv.Error, ParseError, InvariantError) as exc:
        raise ParseError(str(exc), reader.line_num or 1) from None
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
    typed("series", series, CreditSeries)
    return csv_text(CSV_HEADER, [
        [o.quarter] + [v if v is None else float(v) for v in (o.tcu, o.abd, o.loans, o.gdp)]
        for o in series.observations
    ])
