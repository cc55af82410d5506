"""Checks on the package as a whole: the exported names, dead names and the
construction contract of its records."""

import ast
import dataclasses
import math
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import steadycredit
from conftest import canonical_series
from steadycredit.basel import GapConfig, buffer_add_on, credit_gap, hp_filter
from steadycredit.cycles import cycle_stats
from steadycredit.errors import ContiguityError, InvariantError, SteadyCreditError, WindowError
from steadycredit.ols import fit
from steadycredit.rates import (
    RatePoint,
    RateSeries,
    credit_growth_rates,
    outside_window,
    select_window,
    window_rates,
)
from steadycredit.report import analyze, render_svg, to_json
from steadycredit.series import (
    CreditObservation,
    CreditSeries,
    Quarter,
    Window,
    emit_csv,
    parse_csv,
)
from steadycredit.steady_state import (
    chi2_p_value,
    expected_growth,
    ssp_irr_root,
    ssp_least_squares,
    trajectory,
)
from steadycredit.synth import Scenario, generate, parse_scenario

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "steadycredit"
EXEMPT = {"__all__", "__version__"}


def test_exports_match_the_package_imports():
    exported = steadycredit.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(steadycredit, name)] == []
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert sorted(name for name in imported - set(exported) if not name.startswith("_")) == []


def test_the_package_root_leaves_the_simulator_out():
    # analysis never uses the simulator; its callers import steadycredit.synth
    assert len(steadycredit.__all__) == 37
    assert [name for name in ("Scenario", "generate", "parse_scenario")
            if hasattr(steadycredit, name)] == []
    code = "import sys, steadycredit; print('steadycredit.synth' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def _definitions(tree: ast.Module):
    """(name, node) for every function, class and assigned name at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _uses(node: ast.AST) -> Counter:
    """Identifiers a subtree loads, reads as an attribute or imports."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            uses[sub.name.rpartition(".")[2]] += 1
    return uses


def test_every_module_level_name_is_used():
    # a use in the tests does not count: a helper only they need lives in tests/,
    # while a name __init__.py exports counts through its import there
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    total = Counter()
    for tree in trees.values():
        total += _uses(tree)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(trees[path]):
            if name not in EXEMPT and total[name] - _uses(node)[name] == 0:
                unused.append(f"{path.name}: {name}")
    assert unused == []


def test_credit_observation_is_the_one_dataclass():
    # dataclasses.replace on observations is how the tests and the benchmark
    # add a GDP column to a generated series
    decorated = [(path.name, node.name)
                 for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ClassDef)
                 for dec in node.decorator_list
                 if "dataclass" in ast.unparse(dec)]
    assert decorated == [("series.py", "CreditObservation")]
    obs = CreditObservation(Quarter(2008, 1), 100.0, 1.0)
    replaced = dataclasses.replace(obs, gdp=1.0)
    assert type(replaced) is CreditObservation and replaced.gdp == 1.0
    with pytest.raises(InvariantError, match="gdp must be > 0, got 0.0"):
        dataclasses.replace(obs, gdp=0.0)


def test_numeric_fields_have_one_rule():
    # series.number is the one check that a record's float field is a finite number,
    # and series.typed the one check of its int, bool and Quarter fields
    forks = [(path.name, node.name)
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef) and node.name in ("_checked", "__post_init__")
             and {"isinstance", "isfinite", "float_info"} & set(_uses(node))]
    assert forks == []


def test_the_float_range_is_checked_in_one_place():
    # series.number is the one finiteness check of a record's field and of an argument
    checks = [path.name for path in sorted(PACKAGE.glob("*.py"))
              if "float_info.max" in path.read_text(encoding="utf-8")]
    assert checks == ["series.py"]


_NUMBER_KINDS = {"int", "float", "bool", "Quarter"}


def _kind_tests(node: ast.AST, function: str | None = None):
    """(function, line) of each ``isinstance`` call and ``type(...)`` comparison
    in the subtree that names a number kind or ``Quarter``."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, ast.FunctionDef) else function
        if isinstance(child, ast.Call) and ast.unparse(child.func) == "isinstance":
            tested = child.args[1]
        elif isinstance(child, ast.Compare) and any(
                isinstance(side, ast.Call) and ast.unparse(side.func) == "type"
                for side in (child.left, *child.comparators)):
            tested = child
        else:
            tested = None
        if tested is not None and _NUMBER_KINDS & {
                name.id for name in ast.walk(tested) if isinstance(name, ast.Name)}:
            yield inner, child.lineno
        yield from _kind_tests(child, inner)


def test_what_a_number_is_is_decided_in_one_module():
    # series.number, series.typed, series.floats and series.finite decide what a
    # number or a quarter is; the JSON writer tests the values and key paths it
    # writes, and the CLI the exit code argparse gives
    exempt = {("report.py", "_write"), ("report.py", "dump_json"), ("cli.py", "main")}
    tests = [(path.name, function, line)
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "series.py"
             for function, line in _kind_tests(ast.parse(path.read_text(encoding="utf-8")))
             if (path.name, function) not in exempt]
    assert tests == []


_Q = Quarter(2008, 1)
_OBS = [CreditObservation(Quarter(2008, q), 100.0, 1.0) for q in (1, 2, 3)]
_POINT = RatePoint(_Q, 0.01, 0.02, "loans-formula")
_SCENARIO = dict(n_quarters=8, start=_Q, tcu0=1e9, d_base=0.01, d_amp=0.005,
                 d_period_quarters=4, zeta_true=0.001, noise_sigma=0.0,
                 hypothesis="H1", seed=1)

# (class, valid arguments in field order, field, bad value, error, message)
_BAD_ARGUMENTS = [
    (Quarter, dict(year=2008, q=1), "q", 5,
     InvariantError, "quarter number must be in 1..4, got 5"),
    (Quarter, dict(year=2008, q=1), "year", 2008.0,
     InvariantError, "year must be an integer, got 2008.0"),
    (Quarter, dict(year=2008, q=1), "q", True,
     InvariantError, "q must be an integer, got True"),
    (Quarter, dict(year=2008, q=1), "year", True,
     InvariantError, "year must be an integer, got True"),
    (Quarter, dict(year=2008, q=1), "year", 10**5000,
     InvariantError, "quarter year must be in 1000..9999, got an int of 16610 bits"),
    (Quarter, dict(year=2008, q=1), "q", 10**5000,
     InvariantError, "quarter number must be in 1..4, got an int of 16610 bits"),
    (Window, dict(start=_Q, end=Quarter(2009, 1), start_inclusive=True, end_inclusive=False),
     "end", _Q, WindowError, "window start 2008-Q1 must precede end 2008-Q1"),
    (Window, dict(start=_Q, end=Quarter(2009, 1), start_inclusive=True, end_inclusive=False),
     "end", "2009-Q1", InvariantError, "end must be a Quarter, got '2009-Q1'"),
    (Window, dict(start=_Q, end=Quarter(2009, 1), start_inclusive=True, end_inclusive=False),
     "start", "2008-Q1", InvariantError, "start must be a Quarter, got '2008-Q1'"),
    (Window, dict(start=_Q, end=Quarter(2009, 1), start_inclusive=True, end_inclusive=False),
     "start_inclusive", "no", InvariantError, "start_inclusive must be a bool, got 'no'"),
    (Window, dict(start=_Q, end=Quarter(2009, 1), start_inclusive=True, end_inclusive=False),
     "end_inclusive", 0, InvariantError, "end_inclusive must be a bool, got 0"),
    (Window, dict(start=_Q, end=Quarter(2009, 1), start_inclusive=True, end_inclusive=False),
     "end_inclusive", None, InvariantError, "end_inclusive must be a bool, got None"),
    (CreditSeries, dict(observations=_OBS[:2]), "observations", _OBS[:1],
     InvariantError, "series needs at least 2 observations, got 1"),
    (CreditSeries, dict(observations=_OBS[:2]), "observations", _OBS[::2],
     ContiguityError, "missing quarter 2008-Q2 before 2008-Q3"),
    (RatePoint, dict(interval_end=_Q, d=0.01, f=0.02, f_source="loans-formula"), "d", 1.0,
     InvariantError, "2008-Q1: d must be in [0,1), got 1.0"),
    (RatePoint, dict(interval_end=_Q, d=0.01, f=0.02, f_source="loans-formula"), "f", -1.0,
     InvariantError, "2008-Q1: f must be > -1, got -1.0"),
    (RatePoint, dict(interval_end=_Q, d=0.01, f=0.02, f_source="loans-formula"), "f", math.inf,
     InvariantError, "2008-Q1: f must be finite, got inf"),
    (RatePoint, dict(interval_end=_Q, d=0.01, f=0.02, f_source="loans-formula"), "d", "0.01",
     InvariantError, "2008-Q1: d must be a number, got '0.01'"),
    (RatePoint, dict(interval_end=_Q, d=0.01, f=0.02, f_source="loans-formula"), "f", True,
     InvariantError, "2008-Q1: f must be a number, got True"),
    (RatePoint, dict(interval_end=_Q, d=0.01, f=0.02, f_source="loans-formula"), "f", 10**400,
     InvariantError, f"2008-Q1: f must be finite, got {10**400}"),
    (RatePoint, dict(interval_end=_Q, d=0.01, f=0.02, f_source="loans-formula"), "d", 10**5000,
     InvariantError, "2008-Q1: d must be finite, got an int of 16610 bits"),
    (RatePoint, dict(interval_end=_Q, d=0.01, f=0.02, f_source="loans-formula"), "d", math.nan,
     InvariantError, "2008-Q1: d must be finite, got nan"),
    (RatePoint, dict(interval_end=_Q, d=0.01, f=0.02, f_source="loans-formula"),
     "interval_end", "x", InvariantError, "interval_end must be a Quarter, got 'x'"),
    (RatePoint, dict(interval_end=_Q, d=0.01, f=0.02, f_source="loans-formula"),
     "f_source", "bogus", InvariantError, "unknown f_source 'bogus'"),
    (RateSeries, dict(points=[_POINT]), "points", [],
     InvariantError, "rate series must not be empty"),
    (RateSeries, dict(points=[_POINT]), "points", [_POINT, _POINT],
     InvariantError, "rate points must be contiguous, broken at 2008-Q1"),
    (GapConfig, dict(lam=1600.0, gap_low=2.0, gap_high=10.0, buffer_max=0.025), "lam", -1.0,
     InvariantError, "smoothing parameter must be >= 0, got -1.0"),
    (GapConfig, dict(lam=1600.0, gap_low=2.0, gap_high=10.0, buffer_max=0.025),
     "gap_high", float("inf"), InvariantError, "gap_high must be finite, got inf"),
    (GapConfig, dict(lam=1600.0, gap_low=2.0, gap_high=10.0, buffer_max=0.025), "lam", math.nan,
     InvariantError, "lam must be finite, got nan"),
    (GapConfig, dict(lam=1600.0, gap_low=2.0, gap_high=10.0, buffer_max=0.025), "lam", "1600",
     InvariantError, "lam must be a number, got '1600'"),
    (GapConfig, dict(lam=1600.0, gap_low=2.0, gap_high=10.0, buffer_max=0.025), "lam", True,
     InvariantError, "lam must be a number, got True"),
    (GapConfig, dict(lam=1600.0, gap_low=2.0, gap_high=10.0, buffer_max=0.025), "lam", 10**400,
     InvariantError, f"lam must be finite, got {10**400}"),
    (Scenario, _SCENARIO, "tcu0", 0.0,
     InvariantError, "tcu0 must be positive, got 0.0"),
    (Scenario, _SCENARIO, "d_period_quarters", 0,
     InvariantError, "cycle length must be >= 1, got 0"),
    (Scenario, _SCENARIO, "noise_sigma", -0.5,
     InvariantError, "noise_sigma must be >= 0, got -0.5"),
    (Scenario, _SCENARIO, "noise_sigma", math.nan,
     InvariantError, "noise_sigma must be finite, got nan"),
    (Scenario, _SCENARIO, "d_base", math.inf,
     InvariantError, "d_base must be finite, got inf"),
    (Scenario, _SCENARIO, "tcu0", "9e11",
     InvariantError, "tcu0 must be a number, got '9e11'"),
    (Scenario, _SCENARIO, "noise_sigma", True,
     InvariantError, "noise_sigma must be a number, got True"),
    (Scenario, _SCENARIO, "zeta_true", 10**400,
     InvariantError, f"zeta_true must be finite, got {10**400}"),
    (Scenario, _SCENARIO, "hypothesis", "H2",
     InvariantError, "hypothesis must be H0 or H1, got 'H2'"),
    (Scenario, _SCENARIO, "seed", -1,
     InvariantError, "seed must be >= 0, got -1"),
    (Scenario, _SCENARIO, "n_quarters", 8.5,
     InvariantError, "n_quarters must be an integer, got 8.5"),
    (Scenario, _SCENARIO, "start", "2008-Q1",
     InvariantError, "start must be a Quarter, got '2008-Q1'"),
    (Scenario, _SCENARIO, "d_period_quarters", 2.5,
     InvariantError, "d_period_quarters must be an integer, got 2.5"),
    (Scenario, _SCENARIO, "seed", 1.5,
     InvariantError, "seed must be an integer, got 1.5"),
    (Scenario, _SCENARIO, "seed", True,
     InvariantError, "seed must be an integer, got True"),
    (Scenario, _SCENARIO, "seed", -10**5000,
     InvariantError, "seed must be >= 0, got a negative int of 16610 bits"),
    (Scenario, _SCENARIO, "d_period_quarters", -10**5000,
     InvariantError, "cycle length must be >= 1, got a negative int of 16610 bits"),
    (Scenario, _SCENARIO, "tcu0", 10**5000,
     InvariantError, "tcu0 must be finite, got an int of 16610 bits"),
    (Scenario, _SCENARIO, "n_quarters", 10**5000,
     InvariantError, "n_quarters from 2008-Q1 must be <= 31968, got an int of 16610 bits"),
]


def _case_id(cls, valid, field, bad) -> str:
    """Class and field; a None, NaN, bool, string, inf, huge (an int past the
    float range) or fractional case (in an integer field) that shares its
    field with another case names the value too."""
    shared = sum((c, f) == (cls, field) for c, _, f, *_ in _BAD_ARGUMENTS) > 1
    kind = ("-none" if bad is None else "-nan" if bad != bad else "-bool" if type(bad) is bool
            else "-str" if isinstance(bad, str) else "-inf" if bad == math.inf
            else "-huge" if type(bad) is int and abs(bad) > sys.float_info.max
            else "-fraction" if type(valid[field]) is int and bad % 1 else "")
    return f"{cls.__name__}-{field}" + (kind if shared else "")


@pytest.mark.parametrize("cls, valid, field, bad, error, message", _BAD_ARGUMENTS,
                         ids=[_case_id(cls, valid, field, bad)
                              for cls, valid, field, bad, *_ in _BAD_ARGUMENTS])
def test_constructors_validate_positional_and_keyword_arguments(
        cls, valid, field, bad, error, message):
    assert cls(*valid.values()) == cls(**valid)
    args = {**valid, field: bad}
    for construct in (lambda: cls(*args.values()), lambda: cls(**args),
                      lambda: cls._make(args.values()),
                      lambda: cls(**valid)._replace(**{field: bad})):
        with pytest.raises(error) as info:
            construct()
        assert type(info.value) is error and str(info.value) == message


_OBS_FIELDS = dict(quarter=_Q, tcu=1e9, abd=0.0, loans=None, gdp=None)


@pytest.mark.parametrize("field, bad, message", [
    ("tcu", "1e9", "2008-Q1: tcu must be a number, got '1e9'"),
    ("tcu", True, "2008-Q1: tcu must be a number, got True"),
    ("tcu", 10**400, f"2008-Q1: tcu must be finite, got {10**400}"),
    ("tcu", 10**5000, "2008-Q1: tcu must be finite, got an int of 16610 bits"),
    ("quarter", "2008-Q1", "quarter must be a Quarter, got '2008-Q1'"),
], ids=["tcu-str", "tcu-bool", "tcu-huge", "tcu-past-str-limit", "quarter-str"])
def test_credit_observation_validates_field_types(field, bad, message):
    args = {**_OBS_FIELDS, field: bad}
    for construct in (lambda: CreditObservation(*args.values()),
                      lambda: CreditObservation(**args),
                      lambda: dataclasses.replace(CreditObservation(**_OBS_FIELDS), **{field: bad})):
        with pytest.raises(InvariantError) as info:
            construct()
        assert type(info.value) is InvariantError and str(info.value) == message


# a record and its numeric fields, each with whether None is a valid value there
_NUMERIC_FIELDS = [
    (CreditObservation, _OBS_FIELDS, dict(tcu=False, abd=False, loans=True, gdp=True)),
    (RatePoint, dict(interval_end=_Q, d=0.01, f=0.02, f_source="loans-formula"),
     dict(d=False, f=False)),
    (GapConfig, dict(lam=1600.0, gap_low=2.0, gap_high=10.0, buffer_max=0.025),
     dict.fromkeys(("lam", "gap_low", "gap_high", "buffer_max"), False)),
    (Scenario, _SCENARIO,
     dict.fromkeys(("tcu0", "d_base", "d_amp", "zeta_true", "noise_sigma"), False)),
]
_PAST_FLOAT = int(sys.float_info.max) + 1
_NOT_A_FINITE_NUMBER = st.one_of(
    st.text(), st.booleans(), st.none(), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(_PAST_FLOAT, 10**400), st.integers(-10**400, -_PAST_FLOAT),
    st.sampled_from([10**5000, -10**5000]))


@given(record=st.sampled_from(_NUMERIC_FIELDS), data=st.data())
def test_a_numeric_field_refuses_anything_but_a_finite_number(record, data):
    cls, valid, fields = record
    field = data.draw(st.sampled_from(sorted(fields)))
    bad = data.draw(_NOT_A_FINITE_NUMBER.filter(lambda v: v is not None or not fields[field]))
    with pytest.raises(InvariantError):
        cls(**{**valid, field: bad})


_RATES = RateSeries(tuple(RatePoint(_Q.shift(k), 0.002 * k, 0.003 * k * k, "loans-formula")
                          for k in range(1, 5)))
# a public function, valid arguments, and the kind of each of its number arguments:
# a scalar, a scalar where None is valid, or a sequence checked element by element
# (analyze records a bad sigma_ref as a stage error, so it is not listed)
_NUMBER_ARGUMENTS = [
    (fit, ([0.0, 1.0, 2.0], [1.0, 2.0, 4.0]), {0: "each", 1: "each"}),
    (chi2_p_value, (3.0, 4), {0: "scalar", 1: "scalar"}),
    (expected_growth, (0.01, 0.002), {0: "scalar", 1: "scalar"}),
    (trajectory, (_RATES, 0.002), {1: "scalar"}),
    (ssp_least_squares, (_RATES, 0.5), {1: "optional"}),
    (ssp_irr_root, (_RATES, 0.5), {1: "optional"}),
    (hp_filter, ([1.0, 2.0, 4.0, 3.0], 1600.0), {0: "each", 1: "scalar"}),
    (buffer_add_on, (5.0,), {0: "scalar"}),
    (cycle_stats, ([1.0, 3.0, 2.0, 4.0],), {0: "each"}),
]
# numbers of other types than int and float: a scalar argument refuses them, as a
# float field does, while a sample reads each but numpy's bool by float()
_FOREIGN_NUMBERS = st.sampled_from([np.bool_(True), np.int64(1), np.float32(1.0),
                                    Fraction(1, 3), Decimal("1.5")])
# a value in a sequence may also be bytes, a nested list, or another kind of number
# that is no finite real
_NOT_A_FINITE_ELEMENT = st.one_of(
    _NOT_A_FINITE_NUMBER, st.binary(), st.lists(st.floats(), max_size=1),
    st.sampled_from([np.bool_(True), 1 + 2j, Fraction(10**400), Decimal("nan"),
                     np.float32("inf")]))


def _byte_samples(n: int):
    """A sample of the small ints 1..n written as bytes, which list() reads as ints."""
    values = bytes(range(1, n + 1))
    return st.sampled_from([values, bytearray(values), memoryview(values)])


@given(case=st.sampled_from(_NUMBER_ARGUMENTS), data=st.data())
def test_a_number_argument_refuses_anything_but_a_finite_number(case, data):
    fn, valid, kinds = case
    args = list(valid)
    position = data.draw(st.sampled_from(sorted(kinds)))
    if kinds[position] == "each":
        values = list(args[position])
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(_NOT_A_FINITE_ELEMENT)
        args[position] = data.draw(st.one_of(st.just(values), _byte_samples(len(values))))
    else:
        args[position] = data.draw(st.one_of(_NOT_A_FINITE_NUMBER, _FOREIGN_NUMBERS).filter(
            lambda v: v is not None or kinds[position] != "optional"))
    fn(*valid)  # the valid arguments are accepted
    # no other exception, and no result at all, let alone a non-finite one
    with pytest.raises(SteadyCreditError):
        fn(*args)


_MAX = sys.float_info.max
# two points whose expected growths of ~1e300 leave a residual sum of squares past the float range
_HUGE_RATES = RateSeries((RatePoint(_Q, 0.5, 1e300, "loans-formula"),
                          RatePoint(_Q.shift(1), 0.0, 1e300, "loans-formula")))
# one point whose expected growth (0.5 + 1e308) / 0.5 leaves the float range
_HALF_RATES = RateSeries((RatePoint(_Q, 0.5, 0.01, "loans-formula"),))
_SERIES = CreditSeries(tuple(_OBS))
_GDP_SERIES = CreditSeries(tuple(CreditObservation(o.quarter, 100.0, 1.0, None, 400.0)
                                 for o in _OBS))
_WINDOW = Window(_Q, _Q.shift(2))
_REPORT = analyze(_SERIES)


# calls that once returned NaN or an infinity, read text or flags as numbers, or
# raised a bare error
@pytest.mark.parametrize("fn, args", [
    (fit, ([math.nan, 1, 2], [1, 2, 3])),
    (cycle_stats, (["1", "3", "2", "4"],)),
    (fit, ("123", "124")),
    (hp_filter, ([True, False, True], 1600.0)),
    (hp_filter, ([1.0, 2.0, 3.0], math.nan)),
    (fit, ([10**400, 1, 2], [1, 2, 3])),
    (cycle_stats, ("abcd",)),
    (trajectory, (_RATES, "0.1")),
    (chi2_p_value, (1.0, 100_001)),
    (chi2_p_value, (1.0, 10**400)),
    (buffer_add_on, ("5",)),
    (buffer_add_on, (math.nan,)),
    (expected_growth, ("5", 0.0)),
    (expected_growth, (0.01, math.nan)),
    (fit, (np.array([True, False, True, False]), [1.0, 2.0, 3.0, 5.0])),
    (fit, (b"\x01\x02\x04", b"\x01\x03\x02")),
    (hp_filter, (bytearray(b"\x01\x02\x04"), 1600.0)),
    (cycle_stats, (memoryview(b"\x01\x03\x02"),)),
    (fit, ([1.0, 2.0, 3.0], [1e308, -1e308, 1e308])),
    (fit, ([0.0, 1.0, 2.0, 3.0], [_MAX, -_MAX, _MAX, -_MAX])),
    (cycle_stats, ([_MAX, -_MAX, _MAX, -_MAX, _MAX],)),
    (ssp_irr_root, (_HUGE_RATES, 1e300)),
    (ssp_least_squares, (_HUGE_RATES, 1e300)),
    (expected_growth, (0.5, 1e308)),
    (trajectory, (_HALF_RATES, 1e308)),
    (cycle_stats, ([1.0, 3.0, 2.0], iter([_Q, _Q.shift(1), _Q.shift(2)]))),
    (hp_filter, ([1e-300] * 4 + [_MAX] * 4, 1600.0)),
    (analyze, (_OBS,)),
    (analyze, (_SERIES, "crisis")),
    (analyze, (_GDP_SERIES, None, "prefer-loans", "x")),  # not a gap stage error
    (analyze, (_SERIES, None, None)),
    (analyze, ([10**5000],)),
    (analyze, ((-10**5000,),)),
    (analyze, ({"tcu": 10**5000},)),
    (credit_growth_rates, (_OBS,)),
    (credit_growth_rates, (_SERIES, "nope")),
    (window_rates, (_OBS, _WINDOW)),
    (outside_window, (_OBS, _WINDOW)),
    (credit_gap, (_GDP_SERIES, {})),
    (buffer_add_on, (3.0, None)),
    (ssp_least_squares, (list(_RATES.points),)),
    (ssp_irr_root, (list(_RATES.points),)),
    (trajectory, (list(_RATES.points), 0.001)),
    (select_window, (_RATES, "crisis")),
    (to_json, ({},)),
    (render_svg, ({}, "exhibit1")),
    (render_svg, (_REPORT, "exhibit1", "x")),
    (render_svg, (_REPORT, "exhibit1", [1, 2])),
    (render_svg, (_REPORT, "exhibit1", (None,))),
    (render_svg, (_REPORT, "exhibit2", "x")),
    (render_svg, (_REPORT, "exhibit2", [1, 2])),
    (render_svg, (_REPORT, "exhibit2", (None,))),
    (emit_csv, (_OBS,)),
    (generate, ({},)),
    (parse_csv, (b"quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n",)),
    (parse_scenario, (b"n_quarters=8\n",)),
], ids=["fit-nan", "cycles-text", "fit-digits", "hp-flags", "hp-nan-lam",
        "fit-huge", "cycles-letters", "trajectory-text", "p-value-dof-cap",
        "p-value-dof-huge", "buffer-text", "buffer-nan", "growth-text", "growth-nan",
        "fit-numpy-bool", "fit-bytes", "hp-bytearray", "cycles-memoryview",
        "fit-scale-overflow", "fit-slope-overflow", "cycles-amplitude-overflow",
        "irr-root-sigma-overflow", "least-squares-sigma-overflow", "growth-overflow",
        "trajectory-growth-overflow", "cycles-quarter-iterator", "hp-trend-overflow",
        "analyze-list", "analyze-window-text", "analyze-gap-cfg-text", "analyze-f-mode-none",
        "analyze-huge-int-list", "analyze-huge-int-tuple", "analyze-huge-int-dict", "rates-list", "rates-f-mode-unknown", "window-rates-list", "outside-window-list",
        "gap-cfg-dict", "buffer-cfg-none", "least-squares-list", "irr-root-list",
        "trajectory-list", "select-window-text", "to-json-dict", "render-dict",
        "render-panel-rates-out-text", "render-panel-rates-out-list",
        "render-panel-rates-out-none", "render-scatter-rates-out-text",
        "render-scatter-rates-out-list", "render-scatter-rates-out-none", "emit-list",
        "generate-dict", "parse-csv-bytes", "parse-scenario-bytes"])
def test_a_bad_argument_is_a_typed_error(fn, args):
    with pytest.raises(SteadyCreditError):
        fn(*args)


@pytest.mark.parametrize("fn, args, message", [
    (analyze, (_SERIES, (_Q, _Q.shift(2))), "window must be a Window, got "),
    (analyze, (_GDP_SERIES, _WINDOW, "prefer-loans", None), "gap_cfg must be a GapConfig, got None"),
    (analyze, (_SERIES, _WINDOW, None), "unknown f_mode None"),
    (select_window, (_RATES.points, _WINDOW), "rates must be a RateSeries, got "),
    (analyze, ([10**5000],), "series must be a CreditSeries, got [an int of 16610 bits]"),
    (to_json, (None,), "report must be an AnalysisReport, got None"),
    (parse_csv, (None,), "text must be a str, got None"),
    (render_svg, (_REPORT, "exhibit1", [1, 2]), "rates_out must be a tuple, got [1, 2]"),
    (render_svg, (_REPORT, "exhibit2", (None,)),
     "rate point at index 0 must be a RatePoint, got None"),
], ids=["analyze-window-tuple", "analyze-gap-cfg-none", "analyze-f-mode-none",
        "select-window-points", "analyze-huge-int-list", "to-json-none", "parse-csv-none", "render-rates-out-list",
        "render-rates-out-none"])
def test_a_record_or_text_argument_of_another_kind_is_named(fn, args, message):
    with pytest.raises(InvariantError) as info:
        fn(*args)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("copies", [1, 600])
def test_the_message_of_a_refused_argument_is_short_whatever_its_size(copies):
    # the canonical observations as a list, not a series; 600 copies give 20,400 items
    observations = list(canonical_series().observations) * copies
    with pytest.raises(InvariantError) as info:
        analyze(observations)
    message = str(info.value)
    assert message.startswith("series must be a CreditSeries, got [CreditObserva")
    assert len(message) <= 200


@pytest.mark.parametrize("convert", [
    lambda xs: np.array(xs, dtype=np.int64), lambda xs: np.array(xs, dtype=np.float32),
    lambda xs: [Fraction(x) for x in xs], lambda xs: [Decimal(x) for x in xs],
], ids=["numpy-int64", "numpy-float32", "fraction", "decimal"])
def test_a_sample_of_other_real_numbers_is_read_by_float(convert):
    # each value is read as float(value): the results equal those of the float sample
    xs, ys = [0, 1, 2, 4], [1, 3, 2, 5]
    floats = [float(x) for x in xs]
    assert fit(convert(xs), convert(ys)) == fit(floats, [float(y) for y in ys])
    assert hp_filter(convert(xs), 1600.0) == hp_filter(floats, 1600.0)
    assert cycle_stats(convert(ys)) == cycle_stats([float(y) for y in ys])


# a record and the kind of each of its int, bool and Quarter fields
_TYPED_FIELDS = [
    (Quarter, dict(year=2008, q=1), dict(year=int, q=int)),
    (CreditObservation, _OBS_FIELDS, dict(quarter=Quarter)),
    (Window, dict(start=_Q, end=Quarter(2009, 1), start_inclusive=True, end_inclusive=False),
     dict(start=Quarter, end=Quarter, start_inclusive=bool, end_inclusive=bool)),
    (RatePoint, dict(interval_end=_Q, d=0.01, f=0.02, f_source="loans-formula"),
     dict(interval_end=Quarter)),
    (Scenario, _SCENARIO, dict(n_quarters=int, start=Quarter, d_period_quarters=int, seed=int)),
]
_OF_NO_FIELD_KIND = [st.text(), st.floats(), st.none()]
_HUGE_INTS = st.sampled_from([10**5000, -10**5000])
_OF_ANOTHER_KIND = {
    int: st.one_of(*_OF_NO_FIELD_KIND, st.booleans()),
    bool: st.one_of(*_OF_NO_FIELD_KIND, st.integers(), _HUGE_INTS),
    Quarter: st.one_of(*_OF_NO_FIELD_KIND, st.booleans(), st.integers(), _HUGE_INTS,
                       st.tuples(st.integers(1000, 9999), st.integers(1, 4))),
}


@given(record=st.sampled_from(_TYPED_FIELDS), data=st.data())
def test_a_typed_field_refuses_a_value_of_another_kind(record, data):
    cls, valid, fields = record
    field = data.draw(st.sampled_from(sorted(fields)))
    bad = data.draw(_OF_ANOTHER_KIND[fields[field]])
    args = {**valid, field: bad}
    constructions = [lambda: cls(*args.values()), lambda: cls(**args)]
    if dataclasses.is_dataclass(cls):
        constructions.append(lambda: dataclasses.replace(cls(**valid), **{field: bad}))
    else:
        constructions += [lambda: cls._make(args.values()),
                          lambda: cls(**valid)._replace(**{field: bad})]
    for construct in constructions:
        with pytest.raises(InvariantError) as info:
            construct()
        assert type(info.value) is InvariantError
        assert str(info.value).startswith(f"{field} must be ")


def test_scenario_field_kinds_are_declared_once():
    # _checked and parse_scenario both read these kinds; an annotation edit would
    # change how a scenario file parses
    kinds = dict(n_quarters=int, start=Quarter, tcu0=float, d_base=float, d_amp=float,
                 d_period_quarters=int, zeta_true=float, noise_sigma=float, hypothesis=str,
                 seed=int)
    assert list(get_type_hints(Scenario).items()) == list(kinds.items())
    parsed = parse_scenario("".join(f"{key}={value}\n" for key, value in _SCENARIO.items()))
    assert parsed == Scenario(**_SCENARIO)
    assert [type(value) for value in parsed] == list(kinds.values())


def test_make_and_replace_validate():
    with pytest.raises(InvariantError, match="quarter number must be in 1..4, got 7"):
        Quarter._make((2008, 7))
    window = Window(_Q, Quarter(2009, 1))
    with pytest.raises(WindowError, match="window start 2008-Q1 must precede end 2007-Q1"):
        window._replace(end=Quarter(2007, 1))
    moved = window._replace(end=Quarter(2010, 1), end_inclusive=False)
    assert type(moved) is Window and moved == (_Q, Quarter(2010, 1), True, False)
    assert type(Quarter._make((2008, 4))) is Quarter


def test_constructor_defaults():
    gap = GapConfig()
    assert (gap.lam, gap.gap_low, gap.gap_high, gap.buffer_max) == (400_000.0, 2.0, 10.0, 0.025)
    window = Window(_Q, Quarter(2009, 1))
    assert window.start_inclusive is True and window.end_inclusive is True
    obs = CreditObservation(_Q, 100.0, 1.0)
    assert obs.loans is None and obs.gdp is None
    for observations in (list(_OBS), iter(_OBS)):
        assert type(CreditSeries(observations).observations) is tuple
    for points in ([_POINT], iter([_POINT])):
        assert type(RateSeries(points).points) is tuple


_VALIDATED = [Quarter, Window, CreditSeries, RatePoint, RateSeries, GapConfig, Scenario]


@pytest.mark.parametrize("cls", _VALIDATED, ids=[cls.__name__ for cls in _VALIDATED])
def test_validated_record_is_one_named_tuple_class(cls):
    assert cls.__mro__ == (cls, tuple, object)
    assert "_checked" in vars(cls)


def test_no_fields_twin_classes():
    classes = [(path.name, node.name)
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)]
    assert [c for c in classes if c[1].endswith("Fields") or c[1] == "Validated"] == []
