import inspect
import pickle

import pytest

from sglab import SglabError, WorkBudgetExceeded


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


ERRORS = sorted(set(_all_subclasses(SglabError)), key=lambda c: c.__name__)


def test_every_error_class_is_covered():
    # Walking the class tree, not a list, so a new error cannot skip the
    # round trip below.
    assert {c.__name__ for c in ERRORS} >= {
        "OutOfRangeEntry", "NotAssociative", "DuplicateLabel", "EmptyWord", "IndexOutOfRange",
        "AmbientMismatch", "WorkBudgetExceeded", "NotACongruence",
        "SgFormatError", "WorkerDied",
    }


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_error_survives_a_pickle_round_trip(cls):
    # An error raised in a sweep worker is pickled back to the parent;
    # one that cannot be rebuilt from its args would end the worker
    # instead of reaching the parent with its type.
    params = list(inspect.signature(cls.__init__).parameters)[1:]
    args = tuple(range(3, 3 + len(params)))
    e = cls(*args)
    assert e.args == args
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is cls
    assert back.args == e.args
    assert str(back) == str(e)
    assert vars(back) == vars(e)


def test_messages_are_unchanged():
    e = WorkBudgetExceeded("the order-6 catalog", "about 341 s", "10 s")
    want = "the order-6 catalog needs about 341 s, over the budget of 10 s"
    assert str(e) == want
    assert str(pickle.loads(pickle.dumps(e))) == want
