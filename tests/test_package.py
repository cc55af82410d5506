"""Checks on the package as a whole: the exported names, dead names and the
construction contract of its records."""

import ast
import dataclasses
import math
from collections import Counter
from pathlib import Path

import pytest

import steadycredit
from steadycredit.basel import GapConfig
from steadycredit.errors import ContiguityError, InvariantError, WindowError
from steadycredit.rates import RatePoint, RateSeries, RatesConfig
from steadycredit.series import CreditObservation, CreditSeries, Quarter, Window
from steadycredit.synth import Scenario

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
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "tests", "bench")
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
     InvariantError, "quarter fields must be integers, got 2008.0-Q1"),
    (Quarter, dict(year=2008, q=1), "q", True,
     InvariantError, "quarter fields must be integers, got 2008-QTrue"),
    (Quarter, dict(year=2008, q=1), "year", True,
     InvariantError, "quarter fields must be integers, got True-Q1"),
    (Window, dict(start=_Q, end=Quarter(2009, 1), start_inclusive=True, end_inclusive=False),
     "end", _Q, WindowError, "window start 2008-Q1 must precede end 2008-Q1"),
    (CreditSeries, dict(observations=_OBS[:2]), "observations", _OBS[:1],
     InvariantError, "series needs at least 2 observations, got 1"),
    (CreditSeries, dict(observations=_OBS[:2]), "observations", _OBS[::2],
     ContiguityError, "missing quarter 2008-Q2 before 2008-Q3"),
    (RatesConfig, dict(f_mode="prefer-loans"), "f_mode", "nope",
     InvariantError, "unknown f_mode 'nope'"),
    (RatePoint, dict(interval_end=_Q, d=0.01, f=0.02, f_source="loans-formula"), "d", 1.0,
     InvariantError, "2008-Q1: d must be in [0,1), got 1.0"),
    (RatePoint, dict(interval_end=_Q, d=0.01, f=0.02, f_source="loans-formula"), "f", -1.0,
     InvariantError, "2008-Q1: f must be > -1, got -1.0"),
    (RatePoint, dict(interval_end=_Q, d=0.01, f=0.02, f_source="loans-formula"), "f", math.inf,
     InvariantError, "2008-Q1: f must be finite, got inf"),
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
    (Scenario, _SCENARIO, "noise_sigma", -0.5,
     InvariantError, "noise_sigma must be >= 0, got -0.5"),
    (Scenario, _SCENARIO, "noise_sigma", math.nan,
     InvariantError, "noise_sigma must be finite, got nan"),
    (Scenario, _SCENARIO, "d_base", math.inf,
     InvariantError, "d_base must be finite, got inf"),
    (Scenario, _SCENARIO, "hypothesis", "H2",
     InvariantError, "hypothesis must be H0 or H1, got 'H2'"),
    (Scenario, _SCENARIO, "seed", -1,
     InvariantError, "seed must be >= 0, got -1"),
]


def _case_id(cls, field, bad) -> str:
    """Class and field; a NaN, bool or inf case that shares its field with
    another case names the value too."""
    shared = sum((c, f) == (cls, field) for c, _, f, *_ in _BAD_ARGUMENTS) > 1
    kind = ("-nan" if bad != bad else "-bool" if type(bad) is bool
            else "-inf" if bad == math.inf else "")
    return f"{cls.__name__}-{field}" + (kind if shared else "")


@pytest.mark.parametrize("cls, valid, field, bad, error, message", _BAD_ARGUMENTS,
                         ids=[_case_id(cls, field, bad)
                              for cls, _, field, bad, *_ in _BAD_ARGUMENTS])
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
    assert RatesConfig().f_mode == "prefer-loans"
    window = Window(_Q, Quarter(2009, 1))
    assert window.start_inclusive is True and window.end_inclusive is True
    obs = CreditObservation(_Q, 100.0, 1.0)
    assert obs.loans is None and obs.gdp is None
    for observations in (list(_OBS), iter(_OBS)):
        assert type(CreditSeries(observations).observations) is tuple
    for points in ([_POINT], iter([_POINT])):
        assert type(RateSeries(points).points) is tuple


_VALIDATED = [Quarter, Window, CreditSeries, RatesConfig, RatePoint, RateSeries, GapConfig,
              Scenario]


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
