"""Structured exceptions raised across the package.

Every error keeps all of its constructor arguments in ``args`` and
renders its message in ``__str__``, so it pickles and can cross from a
worker process to its parent.
"""


class SglabError(ValueError):
    """Base class for all structured errors raised by sglab."""


class OutOfRangeEntry(SglabError):
    """A Cayley-table cell holds something other than an element index."""

    def __init__(self, row: int, col: int, value: object):
        super().__init__(row, col, value)
        self.row = row
        self.col = col
        self.value = value

    def __str__(self) -> str:
        return f"table[{self.row}][{self.col}] = {self.value!r} is not an index in [0, n)"


class NotAssociative(SglabError):
    """The table violates associativity; carries the first bad triple."""

    def __init__(self, a: int, b: int, c: int):
        super().__init__(a, b, c)
        self.triple = (a, b, c)

    def __str__(self) -> str:
        return "(a*b)*c != a*(b*c) for (a, b, c) = ({}, {}, {})".format(*self.triple)


class DuplicateLabel(SglabError):
    def __init__(self, label: str):
        super().__init__(label)
        self.label = label

    def __str__(self) -> str:
        return f"duplicate label {self.label!r}"


class EmptyWord(SglabError):
    def __init__(self):
        super().__init__()

    def __str__(self) -> str:
        return "cannot multiply an empty word"


class IndexOutOfRange(SglabError):
    def __init__(self, value: object, ambient: int):
        super().__init__(value, ambient)
        self.value = value
        self.ambient = ambient

    def __str__(self) -> str:
        return f"{self.value!r} is not an element index in [0, {self.ambient})"


class AmbientMismatch(SglabError):
    """A subset or congruence lives over another number of elements than
    the semigroup it is asked about; ``kind`` names which it is."""

    def __init__(self, expected: int, got: int, kind: str = "subset"):
        super().__init__(expected, got, kind)
        self.expected = expected
        self.got = got
        self.kind = kind

    def __str__(self) -> str:
        return f"{self.kind} lives over {self.got} elements, semigroup has {self.expected}"


class WorkBudgetExceeded(SglabError):
    """A request would allocate or compute more than its work budget allows.

    ``need`` and ``budget`` are display strings with their units.
    """

    def __init__(self, what: str, need: str, budget: str):
        super().__init__(what, need, budget)
        self.what = what
        self.need = need
        self.budget = budget

    def __str__(self) -> str:
        return f"{self.what} needs {self.need}, over the budget of {self.budget}"


class NotACongruence(SglabError):
    """Quotient construction hit an ill-defined product cell."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail

    def __str__(self) -> str:
        return str(self.detail)


class SgFormatError(SglabError):
    """Malformed .sg file; carries the offending line number."""

    def __init__(self, lineno: int, detail: str):
        super().__init__(lineno, detail)
        self.lineno = lineno
        self.detail = detail

    def __str__(self) -> str:
        return f"line {self.lineno}: {self.detail}"


class WorkerDied(SglabError):
    """A sweep worker process ended before it sent all of its instances.

    ``exitcode`` is the process's exit code: negative for the signal
    that killed it, None if it still had not ended after a short wait.
    """

    def __init__(self, worker: int, exitcode: int | None):
        super().__init__(worker, exitcode)
        self.worker = worker
        self.exitcode = exitcode

    def __str__(self) -> str:
        return f"sweep worker {self.worker} ended with exit code {self.exitcode} before it was done"
