"""Structured exceptions raised across the package."""


class SglabError(ValueError):
    """Base class for all structured errors raised by sglab."""


class OutOfRangeEntry(SglabError):
    """A Cayley-table cell holds something other than an element index."""

    def __init__(self, row: int, col: int, value: object):
        super().__init__(f"table[{row}][{col}] = {value!r} is not an index in [0, n)")
        self.row = row
        self.col = col
        self.value = value


class NotAssociative(SglabError):
    """The table violates associativity; carries the first bad triple."""

    def __init__(self, a: int, b: int, c: int):
        super().__init__(f"(a*b)*c != a*(b*c) for (a, b, c) = ({a}, {b}, {c})")
        self.triple = (a, b, c)


class DuplicateLabel(SglabError):
    def __init__(self, label: str):
        super().__init__(f"duplicate label {label!r}")
        self.label = label


class EmptyWord(SglabError):
    def __init__(self):
        super().__init__("cannot multiply an empty word")


class IndexOutOfRange(SglabError):
    def __init__(self, value: object, ambient: int):
        super().__init__(f"{value!r} is not an element index in [0, {ambient})")
        self.value = value
        self.ambient = ambient


class AmbientMismatch(SglabError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"subset lives over {got} elements, semigroup has {expected}")
        self.expected = expected
        self.got = got


class OrderTooLarge(SglabError):
    def __init__(self, order: int, bound: int):
        super().__init__(f"order {order} exceeds the configured bound {bound}")
        self.order = order
        self.bound = bound


class WorkBudgetExceeded(SglabError):
    """A request would allocate or compute more than its work budget allows.

    ``need`` and ``budget`` are display strings with their units.  All
    three arguments stay in ``args``, so the error pickles and can cross
    from a worker process to its parent.
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


class SgFormatError(SglabError):
    """Malformed .sg file; carries the offending line number."""

    def __init__(self, lineno: int, detail: str):
        super().__init__(f"line {lineno}: {detail}")
        self.lineno = lineno
        self.detail = detail
