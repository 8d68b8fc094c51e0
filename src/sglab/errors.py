"""Structured exceptions raised across the package.

Every error keeps all of its constructor arguments in ``args`` and
renders its message in ``__str__``, so it pickles and can cross from a
worker process to its parent.
"""


class SglabError(ValueError):
    """Base class for all structured errors raised by sglab.

    A subclass names its constructor arguments in ``fields``, in order,
    and its text in ``message``, a ``str.format`` template over them.
    Each argument may be given by position or by name; all of them go,
    in order, to ``args`` and each one also to the attribute of its name.
    """

    fields: tuple[str, ...] = ()
    message = ""

    def __init__(self, *args: object, **named: object):
        given = dict(zip(self.fields, args))
        # A name is unknown, or doubled, unless it is a field not given by position.
        unknown = set(named) - set(self.fields[len(given):])
        if len(args) > len(self.fields) or unknown or len(given) + len(named) < len(self.fields):
            raise TypeError(f"{type(self).__name__} takes ({', '.join(self.fields)}), got "
                            f"{len(args)} by position and {sorted(named)} by name")
        given.update(named)
        super().__init__(*(given[name] for name in self.fields))
        self.__dict__.update(zip(self.fields, self.args))

    def __str__(self) -> str:
        # Only the template is parsed: braces inside a value print as they are.
        return self.message.format_map(self.__dict__)


class OutOfRangeEntry(SglabError):
    """A Cayley-table cell holds something other than an element index."""

    fields = ("row", "col", "value")
    message = "table[{row}][{col}] = {value!r} is not an index in [0, n)"


class NotAssociative(SglabError):
    """The table violates associativity; carries the first bad triple."""

    fields = ("a", "b", "c")
    message = "(a*b)*c != a*(b*c) for (a, b, c) = ({a}, {b}, {c})"

    @property
    def triple(self) -> tuple[int, int, int]:
        return self.args


class DuplicateLabel(SglabError):
    fields = ("label",)
    message = "duplicate label {label!r}"


class EmptyWord(SglabError):
    message = "cannot multiply an empty word"


class IndexOutOfRange(SglabError):
    fields = ("value", "ambient")
    message = "{value!r} is not an element index in [0, {ambient})"


class AmbientMismatch(SglabError):
    """A subset or congruence lives over another number of elements than
    the semigroup it is asked about; ``kind`` names which it is."""

    fields = ("expected", "got", "kind")
    message = "{kind} lives over {got} elements, semigroup has {expected}"

    def __init__(self, expected: int, got: int, kind: str = "subset"):
        super().__init__(expected, got, kind)


class WorkBudgetExceeded(SglabError):
    """A request would allocate or compute more than its work budget allows.

    ``need`` and ``budget`` are display strings with their units.
    """

    fields = ("what", "need", "budget")
    message = "{what} needs {need}, over the budget of {budget}"


class NotACongruence(SglabError):
    """Quotient construction hit an ill-defined product cell."""

    fields = ("detail",)
    message = "{detail}"


class SgFormatError(SglabError):
    """Malformed .sg file; carries the offending line number."""

    fields = ("lineno", "detail")
    message = "line {lineno}: {detail}"


class WorkerDied(SglabError):
    """A sweep worker process ended before it sent all of its instances.

    ``exitcode`` is the process's exit code: negative for the signal
    that killed it, None if it still had not ended after a short wait.
    """

    fields = ("worker", "exitcode")
    message = "sweep worker {worker} ended with exit code {exitcode} before it was done"


class StatusNotInvariant(SglabError):
    """A check asked of a labeled table itself gave another status than
    its class representative gave, though the sweep counts the
    representative's status for every table of the class.  ``table`` is
    the table's record hash and ``case`` its case literal."""

    fields = ("table", "check", "case", "expected", "got")
    message = ("table={table} case={case} check={check}: status {got}, "
               "but its class representative's is {expected}")
