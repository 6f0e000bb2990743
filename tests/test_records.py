"""The package's records: immutable, built by keyword or position, and
compared by their fields.

Every record is a typing.NamedTuple; the ones that validate their input are
a NamedTuple subclass with a validating __new__ and __slots__ = (), so no
record keeps state beside its fields.  perfbench/worker.py builds
RunConfig, RecurrenceData, ButterflyParams and DiscreteMeasure directly, so
their keyword and positional constructors are part of the interface.  A
fold, lsop.FamilyValues, is not a record: it is compared by identity.
"""

from fractions import Fraction

import pytest

from lsopkit.errors import AdmissibilityError, DimensionError
from lsopkit.lsolp import GaugeParams, LsolpFamily
from lsopkit.lsop import PfaffianDetReport, PfaffianRoute, RecurrenceData
from lsopkit.laurent import LaurentPoly
from lsopkit.moments import DiscreteMeasure, MomentTable
from lsopkit.numerics import SymTridiag
from lsopkit.spectra import ButterflyParams, PencilPair
from lsopkit.verify import ClaimResult, RunConfig, VerificationReport

MEASURE = DiscreteMeasure([2.0, 3.0], [0.5, 0.25])

# (record, keyword arguments); the keywords name every field
RECORDS = [
    (RunConfig, dict(seed=3, order=2, mode="rational", tolerances={"butterfly-spectrum": 1e-6})),
    (RecurrenceData, dict(order=1, alpha=(0.0, 1.5), beta=(0.0, 0.0), tau=(1.0, 2.0),
                          sigma=(0.0, 3.0))),
    (ButterflyParams, dict(a=(1.0, 2.0), b=(0.5, 0.0), c=(1.0, 1.0), d=(0.25,))),
    (DiscreteMeasure, dict(nodes=(2.0, 3.0), weights=(0.5, 0.25))),
    (GaugeParams, dict(r=(1.0, -2.0), lam=(0.0, 0.5))),
    (SymTridiag, dict(diag=(1.0, 2.0), offdiag=(0.5,))),
    (MomentTable, dict(mu={0: 0.0}, c={0: 1.0}, order=0)),
    (PfaffianRoute, dict(rows=(LaurentPoly.constant(1),), d=None)),
    (PfaffianDetReport, dict(max_absolute=0.0, max_relative=0.0)),
    (PencilPair, dict(u=[[1.0, 0.0], [0.0, 1.0]], v=[[0.0, 1.0], [-1.0, 0.0]])),
    (LsolpFamily, dict(measure=MEASURE, order=1, node_values=((1.0, 2.0),),
                       recip_values=((1.0, 0.5),))),
    (ClaimResult, dict(claim_id="tridiagonal-spectrum", summary="s", convention="", residual=0.0,
                       tolerance=1e-8, status="pass", exact=False)),
    (VerificationReport, dict(config=RunConfig(), claims=())),
]


@pytest.mark.parametrize("record,kwargs", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_record_is_immutable_and_built_by_keyword_or_position(record, kwargs):
    rec = record(**kwargs)
    assert rec == record(*kwargs.values())
    assert not hasattr(rec, "__dict__")  # no state beside the fields
    for name, value in kwargs.items():
        assert getattr(rec, name) == value
        with pytest.raises(AttributeError):
            setattr(rec, name, value)


def test_equality_ignores_strict():
    loose = DiscreteMeasure([2.0, 3.0], [0.5, 0.25], strict=False)
    assert loose == MEASURE and hash(loose) == hash(MEASURE)


# (valid record, a field change its constructor refuses, the error raised)
INVALID_COPIES = [
    (RunConfig(), {"order": 0}, ValueError),
    (RecurrenceData(1, (0, 1), (0, 0), (1, 2), (0, 1)), {"tau": (2, 2)}, ValueError),
    (ButterflyParams((1.0,), (0.0,), (1.0,), ()), {"a": (0.0,)}, AdmissibilityError),
    (MEASURE, {"nodes": (2.0, 0.5)}, ValueError),
    (GaugeParams((1.0,), (0.0,)), {"r": (0.0,)}, AdmissibilityError),
    (SymTridiag((1.0,), ()), {"offdiag": (1.0,)}, DimensionError),
]


@pytest.mark.parametrize("rec,change,error", INVALID_COPIES,
                         ids=[type(rec).__name__ for rec, _, _ in INVALID_COPIES])
def test_replace_validates_the_copy(rec, change, error):
    with pytest.raises(error):
        rec._replace(**change)
    (name,) = change
    assert rec._replace(**{name: getattr(rec, name)}) == rec


def test_run_config_keeps_a_copy_of_the_tolerances():
    overrides = {"butterfly-spectrum": 1e-7}
    cfg = RunConfig(tolerances=overrides)
    overrides["butterfly-spectrum"] = -5.0
    overrides["no-such-claim"] = Fraction(1)
    assert cfg.tolerance("butterfly-spectrum") == 1e-7
    assert dict(cfg.tolerances) == {"butterfly-spectrum": 1e-7}
    with pytest.raises(TypeError):
        cfg.tolerances["butterfly-spectrum"] = -5.0
