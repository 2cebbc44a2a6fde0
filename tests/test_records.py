"""The value-class contract of ``numeric.Record``, checked on every value class."""

from __future__ import annotations

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import dfchaos
from dfchaos.bayes import ExponentialDecomposition, ObservedSample
from dfchaos.chaos import BlackBoxFunctional, ChaosDecomposition, CovarianceResult, MCEstimate
from dfchaos.errors import DomainError
from dfchaos.hoeffding import HoeffdingDecomposition
from dfchaos.jacobi import BetaParams, PolynomialCoeffs
from dfchaos.kernels import PredictableComponent, SimplexPolynomial, SymmetricKernel
from dfchaos.measures import DiscreteBaseMeasure, measure
from dfchaos.numeric import Record, cached_attribute
from dfchaos.polya import PolyaSample
from dfchaos.ustat import ApproximationReport, OracleApproximation, ScaledKernelCandidate, UStatistic
from dfchaos.validation import (
    CheckResult,
    ThetaComparison,
    ThetaErratumEntry,
    ThetaErratumReport,
    ThetaLimit,
    VerificationResult,
)
from dfchaos.wright_fisher import TransitionDensity, TransitionModel

HALF = Fraction(1, 2)
ALPHA = measure(1, HALF)
KERNEL = SymmetricKernel(1, 2, {(1, 0): HALF, (0, 1): Fraction(-1, 2)})
ESTIMATE = MCEstimate(0.25, 0.01, 1000)
COMPARISON = ThetaComparison(2, 1, 0.5, HALF, HALF)
CHECK = CheckResult("closed form", True, "exact")

# Per value class: its fields in constructor order, one canonical set of
# field values (as stored, so positional and keyword construction and the
# repr can be compared with them), the defaults, and field values that its
# initialiser refuses (None where it checks nothing).
CASES = {
    DiscreteBaseMeasure: (("weights",), ((Fraction(1), HALF),), {}, ((),)),
    SymmetricKernel: (
        ("order", "atoms", "values"),
        (1, 2, {(1, 0): HALF, (0, 1): Fraction(-1)}),
        {},
        (1, 2, {(2, 0): 1}),
    ),
    SimplexPolynomial: (
        ("nvars", "terms"), (2, {(1, 0): HALF, (0, 2): Fraction(-1)}), {}, (2, {(1,): 1})
    ),
    PredictableComponent: (("order", "atoms", "table"), (1, 2, {((0, 0), 1): HALF}), {}, None),
    BlackBoxFunctional: (("fn", "atoms", "mc_budget"), (sum, 2, 500), {"mc_budget": 10_000}, None),
    MCEstimate: (("value", "stderr", "draws"), (0.25, 0.01, 1000), {}, None),
    ChaosDecomposition: (("alpha", "mean", "kernels"), (ALPHA, HALF, (KERNEL,)), {}, None),
    CovarianceResult: (("exact", "predicted", "route"), (HALF, HALF, "isometry"), {}, None),
    HoeffdingDecomposition: (
        ("alpha", "N", "mean", "components", "projections"),
        (ALPHA, 1, Fraction(1, 3), (KERNEL,), (KERNEL,)),
        {},
        None,
    ),
    BetaParams: (("a1", "a0"), (Fraction(1, 3), Fraction(5, 2)), {}, (Fraction(-1), Fraction(1))),
    PolynomialCoeffs: (("coefficients",), ((Fraction(1), Fraction(2)),), {}, ((),)),
    PolyaSample: (("alpha", "labels"), (ALPHA, (1, 2, 1)), {}, (ALPHA, (3,))),
    UStatistic: (("kernel", "window"), (KERNEL, 2), {}, (KERNEL, 0)),
    OracleApproximation: (("components", "loss"), ((KERNEL,), Fraction(1, 9)), {}, None),
    ScaledKernelCandidate: (
        ("kernels", "error_reduced", "error_full"),
        ({1: KERNEL}, Fraction(1, 9), Fraction(1, 8)),
        {},
        None,
    ),
    ApproximationReport: (
        (
            "alpha", "window", "oracle", "oracle_loss_enumerated", "oracle_loss_mc",
            "candidate", "candidate_loss_enumerated", "candidate_loss_mc", "discrepancies",
        ),
        (
            ALPHA, 1, OracleApproximation((KERNEL,), HALF), HALF, ESTIMATE,
            ScaledKernelCandidate({1: KERNEL}, HALF, HALF), HALF, ESTIMATE, (),
        ),
        {},
        None,
    ),
    ObservedSample: (("alpha", "labels"), (ALPHA, (2, 1)), {"labels": ()}, (ALPHA, (3,))),
    ExponentialDecomposition: (
        (
            "decomposition", "lam", "subset", "mean", "variance", "contributions",
            "residual", "residual_bound",
        ),
        (ChaosDecomposition(ALPHA, 1.5, ()), 1.5, (1,), 1.5, 0.25, (0.2,), 0.05, 1e-15),
        {},
        None,
    ),
    ThetaLimit: (
        (
            "k", "a", "total_mass", "value", "sample_sizes", "last_delta", "tolerance",
            "oracle_value", "matches_oracle",
        ),
        (2, 1, HALF, 0.75, (2, 4), 1e-9, 1e-8, Fraction(3, 4), True),
        {},
        None,
    ),
    ThetaComparison: (
        ("order", "slot", "recursion_limit", "oracle", "published"),
        (2, 1, 0.5, HALF, HALF),
        {},
        None,
    ),
    ThetaErratumEntry: (
        (
            "total_mass", "comparisons", "reconstruction_residual_oracle",
            "reconstruction_residual_published", "verdict",
        ),
        (HALF, (COMPARISON,), 0.0, 0.1, "published row refuted"),
        {},
        None,
    ),
    ThetaErratumReport: (("entries",), ((),), {}, None),
    CheckResult: (("name", "passed", "detail"), ("closed form", True, "exact"), {}, None),
    VerificationResult: (("checks",), ((CHECK,),), {}, None),
    TransitionModel: (("theta", "M"), (ALPHA, 2), {}, (ALPHA, -1)),
    TransitionDensity: (
        ("value", "stationary", "contributions", "tail_bound", "negative"),
        (1.02, 0.61, ((1, 0.69, 0.63, 0.43),), 4e-4, False),
        {},
        None,
    ),
}


def _value_classes(base: type) -> set[type]:
    found = set()
    for cls in base.__subclasses__():
        if cls.__module__.startswith("dfchaos."):
            found |= {cls} | _value_classes(cls)
    return found


def test_every_public_value_class_is_a_record_with_a_case():
    for module in pkgutil.iter_modules(dfchaos.__path__):
        importlib.import_module(f"dfchaos.{module.name}")
    public = {cls for cls in _value_classes(Record) if not cls.__name__.startswith("_")}
    assert public == set(CASES)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields, values, defaults, refused = CASES[cls]
    keywords = dict(zip(fields, values))
    record = cls(*values)

    # construction: by position, by keyword, with defaults; errors as TypeError
    assert cls._fields == fields
    assert [getattr(record, name) for name in fields] == list(values)
    assert cls(**keywords) == record
    required = [value for name, value in keywords.items() if name not in defaults]
    filled = cls(*required)
    assert {name: getattr(filled, name) for name in defaults} == defaults
    for name in fields:
        if name not in defaults:
            with pytest.raises(TypeError):
                cls(**{key: value for key, value in keywords.items() if key != name})
    for bad_call in (
        lambda: cls(*values, None),
        lambda: cls(*values, **{fields[0]: values[0]}),
        lambda: cls(**keywords, no_such_field=1),
    ):
        with pytest.raises(TypeError):
            bad_call()
    if refused is not None:
        with pytest.raises(DomainError):
            cls(*refused)

    # equality within one class only (a kernel equals its numerator form)
    assert record.__eq__(object()) is NotImplemented
    twin = type(cls.__name__, (cls,), {})(*values)
    if cls is SymmetricKernel:
        nums = SymmetricKernel._from_numerators(1, 2, (1, -2), 2)
        assert type(nums) is not cls and nums == record and record == nums
        assert twin == record
    else:
        assert twin != record and record != twin

    # hash of the field values, or TypeError where one is unhashable
    try:
        expected = hash(tuple(values))
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected == hash(cls(**keywords))

    shown = ", ".join(f"{name}={value!r}" for name, value in keywords.items())
    assert repr(record) == f"{cls.__name__}({shown})"

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in fields] == list(values)

    for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record
        with pytest.raises(AttributeError):
            setattr(clone, fields[0], None)


def test_cached_attribute_is_computed_once_and_stored_on_a_frozen_instance():
    calls = []

    class Box(Record):
        x: int

        @cached_attribute
        def doubled(self) -> int:
            """Twice the field."""
            calls.append(self.x)
            return 2 * self.x

    box = Box(3)
    assert box.doubled == 6 and box.doubled == 6
    assert calls == [3]
    assert vars(box) == {"x": 3, "doubled": 6}
    assert isinstance(Box.doubled, cached_attribute) and Box.doubled.__doc__ == "Twice the field."
    # the cache stays outside the fields and behind the guard
    assert box == Box(3) and repr(box) == f"{Box.__qualname__}(x=3)"
    with pytest.raises(AttributeError):
        box.doubled = 0


def test_post_init_is_looked_up_on_the_class_at_each_construction(monkeypatch):
    seen = []
    build = TransitionModel.__post_init__

    def timed(self):
        seen.append(self.M)
        build(self)

    monkeypatch.setattr(TransitionModel, "__post_init__", timed)
    model = TransitionModel((1, HALF), 3)
    assert seen == [3]
    assert model.theta == ALPHA and set(model._bands) == {0, 1, 2, 3, 4}
