"""The package's value classes behave as frozen or plain dataclasses would.

Each of the twelve classes is compared with a dataclass twin made here from
its name, its field names and the flags it stands for: construction by
position and by keyword, the repr, equality and hashing, the refusal to
assign or delete an attribute when frozen, and copy and pickle round trips.
The checks made in ``__init__`` keep their error types and messages.
"""

import copy
import dataclasses
import pickle
import re
from collections import Counter

import numpy as np
import pytest

from entconv.channels import DiscardPrepare, LocalUnitary, ProbabilisticBranch, Protocol
from entconv.convertibility import Convertible, Forbidden, Inconclusive
from entconv.errors import BadWeightsError, NotSeparableError, NotUnitaryError, OutOfRangeError
from entconv.oracle import SearchReport
from entconv.states import BellWeights, FamilyTag, MemsWeights, WernerParam, make_werner

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
FLIP = LocalUnitary(X, I2)

# name -> (class, field names, field values, frozen, compared by value)
CASES = {
    "WernerParam": (WernerParam, ("w",), (0.5,), True, True),
    "BellWeights": (BellWeights, ("weights",), ((0.7, 0.1, 0.1, 0.1),), True, True),
    "MemsWeights": (MemsWeights, ("weights",), ((0.6, 0.2, 0.1, 0.1),), True, True),
    "FamilyTag": (FamilyTag, ("kind", "params"), ("werner", WernerParam(0.5)), True, True),
    "LocalUnitary": (LocalUnitary, ("u_a", "u_b"), (X, I2), True, False),
    "DiscardPrepare": (DiscardPrepare, ("target",), (make_werner(0.2),), True, False),
    "Protocol": (Protocol, ("branches",), (((1.0, FLIP),),), True, False),
    "ProbabilisticBranch": (
        ProbabilisticBranch, ("weight", "success_prob", "atom"), (0.5, 0.25, FLIP), True, False
    ),
    "Convertible": (
        Convertible, ("protocol", "certificate", "residual"), (None, "keep", 1e-16), True, False
    ),
    "Forbidden": (Forbidden, ("reason", "detail"), ("rank_gate", "rank 4 > rank 2"), True, True),
    "Inconclusive": (Inconclusive, ("detail",), ("no rule decides the pair",), True, True),
    "SearchReport": (
        SearchReport,
        ("trials", "counterexamples", "elapsed", "live", "skipped"),
        (3, [{"trial": 0}], 0.5, Counter(rank=2), Counter(local_unitary=1)),
        False,
        True,
    ),
}


def _build(name):
    cls, _, values, _, _ = CASES[name]
    return cls(*values)


def _twin(name, obj):
    """The dataclass the class stands for, built with ``obj``'s own field values."""
    cls, fields, _, frozen, by_value = CASES[name]
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=frozen, eq=by_value)
    return twin(*(getattr(obj, field) for field in fields))


def _error(action) -> BaseException:
    with pytest.raises(BaseException) as caught:
        action()
    return caught.value


@pytest.mark.parametrize("name", CASES)
def test_positional_and_keyword_construction_agree(name):
    cls, fields, values, _, _ = CASES[name]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert type(by_keyword) is cls
    assert repr(by_position) == repr(by_keyword)


@pytest.mark.parametrize("name", CASES)
def test_repr_is_the_dataclass_repr(name):
    obj = _build(name)
    assert repr(obj) == repr(_twin(name, obj))


def test_repr_examples():
    assert repr(WernerParam(1)) == "WernerParam(w=1.0)"
    assert repr(Forbidden("rank_gate", "rank 4 > rank 2")) == (
        "Forbidden(reason='rank_gate', detail='rank 4 > rank 2')"
    )
    assert repr(FamilyTag("general")) == "FamilyTag(kind='general', params=None)"
    assert repr(SearchReport(0)) == (
        "SearchReport(trials=0, counterexamples=[], elapsed=0.0, "
        "live=Counter(), skipped=Counter())"
    )


@pytest.mark.parametrize("name", [n for n, case in CASES.items() if case[3]])
def test_frozen_classes_refuse_assignment_and_deletion(name):
    obj = _build(name)
    twin = _twin(name, obj)
    before = repr(obj)
    for field in CASES[name][1] + ("extra",):
        error = _error(lambda: setattr(obj, field, 0))
        assert isinstance(error, AttributeError)
        assert str(error) == str(_error(lambda: setattr(twin, field, 0)))
        error = _error(lambda: delattr(obj, field))
        assert isinstance(error, AttributeError)
        assert str(error) == str(_error(lambda: delattr(twin, field)))
    assert repr(obj) == before


def test_a_search_report_is_mutable():
    report = SearchReport(3)
    report.elapsed = 1.5
    report.live["rank"] += 2
    assert report == SearchReport(3, [], 1.5, Counter(rank=2))
    # each report gets its own containers
    assert SearchReport(3).live == Counter() and SearchReport(3).live is not report.live


@pytest.mark.parametrize("name", CASES)
def test_equality_and_hash_follow_the_dataclass_flags(name):
    cls, _, values, frozen, by_value = CASES[name]
    a, b = cls(*values), cls(*values)
    assert a == a
    # an instance of another class never compares equal, its twin included
    assert a != _twin(name, a)
    if not by_value:
        # identity, with no Python-level __eq__ or __hash__
        assert a != b
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
        assert hash(a) == object.__hash__(a)
    elif frozen:
        assert a == b and hash(a) == hash(b) == hash(_twin(name, a))
        assert len({a, b}) == 1
    else:
        assert a == b
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


def test_weights_of_two_families_never_compare_equal():
    weights = (0.7, 0.1, 0.1, 0.1)
    assert BellWeights(weights) != MemsWeights(weights)
    assert WernerParam(0.5) != WernerParam(0.25)
    assert Forbidden("rank_gate", "a") != Forbidden("rank_gate", "b")
    assert Inconclusive("a") != Forbidden("a", "a")


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("round_trip", [copy.copy, lambda obj: pickle.loads(pickle.dumps(obj))])
def test_copy_and_pickle_round_trips(name, round_trip):
    obj = _build(name)
    clone = round_trip(obj)
    assert type(clone) is type(obj) and clone is not obj
    assert repr(clone) == repr(obj)
    _, _, _, frozen, by_value = CASES[name]
    if by_value:
        assert clone == obj
    if frozen:
        with pytest.raises(AttributeError):
            setattr(clone, CASES[name][1][0], 0)


def test_a_kept_atom_caches_its_channel_in_its_dict():
    from entconv.channels import one_sided_pauli_atoms

    identity = one_sided_pauli_atoms()[0]
    assert identity.channel() is identity.channel()
    assert "_kept_channel" in vars(identity)
    fresh = LocalUnitary(X, I2)
    assert fresh.channel() is not fresh.channel()


@pytest.mark.parametrize("make, error, message", [
    (lambda: WernerParam(1.5), OutOfRangeError, "werner weight must lie in [0, 1], got 1.5"),
    (lambda: WernerParam(float("nan")), OutOfRangeError,
     "werner weight must lie in [0, 1], got nan"),
    (lambda: BellWeights((0.1, 0.7, 0.1, 0.1)), OutOfRangeError,
     "lambda must be non-ascending (lambda[1]=0.7 exceeds lambda[0]=0.1)"),
    (lambda: BellWeights((0.5, 0.3, 0.1, 0.0)), OutOfRangeError,
     "lambda must sum to 1 within 1e-12, got 0.9"),
    (lambda: BellWeights((1.1, 0.0, 0.0, -0.1)), OutOfRangeError,
     "lambda[3] must be nonnegative, got -0.1"),
    (lambda: MemsWeights((0.5, 0.5, 0.0)), OutOfRangeError,
     "lambda needs exactly 4 weights, got 3"),
    (lambda: LocalUnitary(2 * X, I2), NotUnitaryError, "u_a is not unitary within 1e-9"),
    (lambda: LocalUnitary(X, 2 * I2), NotUnitaryError, "u_b is not unitary within 1e-9"),
    (lambda: LocalUnitary(np.eye(3), I2), OutOfRangeError, "u_a must be 2x2, got shape (3, 3)"),
    (lambda: LocalUnitary(X, np.eye(4)), OutOfRangeError, "u_b must be 2x2, got shape (4, 4)"),
    (lambda: DiscardPrepare(make_werner(0.9)), NotSeparableError,
     "prepared state fails the partial-transpose separability test"),
    (lambda: Protocol(((1.0, "atom"),)), TypeError, "unsupported protocol atom str"),
    (lambda: Protocol(((0.5, FLIP),)), BadWeightsError,
     "branch weights must sum to 1 within 1e-9, got 0.5"),
    (lambda: ProbabilisticBranch(1.5, 0.5, FLIP), BadWeightsError,
     "branch weight must lie in [0, 1], got 1.5"),
    (lambda: ProbabilisticBranch(0.5, -0.1, FLIP), BadWeightsError,
     "success probability must lie in [0, 1], got -0.1"),
])
def test_checks_keep_their_errors(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
