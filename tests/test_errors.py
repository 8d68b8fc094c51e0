import pickle

import pytest

import sglab
from sglab import AmbientMismatch, NotAssociative, SglabError, WorkerDied


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
    args = tuple(range(3, 3 + len(cls.fields)))
    e = cls(*args)
    assert e.args == args
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is cls
    assert back.args == e.args
    assert str(back) == str(e)
    assert vars(back) == vars(e)


# One fixed argument tuple per class, and the text each one printed
# before the messages became templates.  Braces inside a value must print
# as they are: a case literal or a format error's detail can hold them.
MESSAGES = {
    "OutOfRangeEntry": ((1, 2, 7), "table[1][2] = 7 is not an index in [0, n)"),
    "NotAssociative": ((0, 1, 2), "(a*b)*c != a*(b*c) for (a, b, c) = (0, 1, 2)"),
    "DuplicateLabel": (("x",), "duplicate label 'x'"),
    "EmptyWord": ((), "cannot multiply an empty word"),
    "IndexOutOfRange": ((5, 3), "5 is not an element index in [0, 3)"),
    "AmbientMismatch": ((3, 2, "congruence"), "congruence lives over 2 elements, semigroup has 3"),
    "WorkBudgetExceeded": (("the order-6 catalog", "about 341 s", "10 s"),
                           "the order-6 catalog needs about 341 s, over the budget of 10 s"),
    "NotACongruence": (("induced relation broke compatibility at {0, 1}",),
                       "induced relation broke compatibility at {0, 1}"),
    "SgFormatError": ((4, "non-integer entry in '{a}'"), "line 4: non-integer entry in '{a}'"),
    "WorkerDied": ((1, None), "sweep worker 1 ended with exit code None before it was done"),
    "StatusNotInvariant": (("ab12", "theorem1-forward", "{0,2}", "pass", "fail"),
                           "table=ab12 case={0,2} check=theorem1-forward: status fail, "
                           "but its class representative's is pass"),
}


def test_messages_are_unchanged():
    assert set(MESSAGES) == {c.__name__ for c in ERRORS}
    for name, (args, want) in MESSAGES.items():
        cls = getattr(sglab, name)
        e = cls(*args)
        assert str(e) == want
        assert e.args == args
        back = pickle.loads(pickle.dumps(e))
        assert str(back) == want
        assert back.args == args
        # Every argument reads back under its name, and builds the same
        # error when it is given by name.
        named = dict(zip(cls.fields, args))
        assert {k: getattr(e, k) for k in named} == named
        assert cls(**named).args == args


def test_arguments_are_checked_and_defaulted():
    with pytest.raises(TypeError):
        WorkerDied(1)
    with pytest.raises(TypeError):
        WorkerDied(1, 2, 3)
    with pytest.raises(TypeError):
        WorkerDied(1, worker=2)
    with pytest.raises(TypeError):
        WorkerDied(1, code=2)
    e = AmbientMismatch(3, 2)
    assert (e.kind, e.args) == ("subset", (3, 2, "subset"))
    assert str(e) == "subset lives over 2 elements, semigroup has 3"
    assert NotAssociative(0, 1, 2).triple == (0, 1, 2)
