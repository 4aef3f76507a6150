"""Shared exception types, the search budget and the one cross-call memo."""

from __future__ import annotations

import contextlib
import contextvars
import functools
import os
from typing import Iterator, Optional

#: Default number of search nodes granted to one search when the caller does
#: not supply a budget.  A node is one step of an exhaustive scan: a Hom or
#: End element tried, a Fitting attempt, a raw representation or a subspace
#: choice enumerated, an iso class or a dimension vector listed.  2M nodes
#: cover every element of a 2^20-element space at p = 2.  Overridable
#: through the FILTRA_BUDGET environment variable.
DEFAULT_BUDGET = 2_000_000


class FiltraError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(FiltraError):
    """Shapes of matrices or representations do not line up."""


class ValidationError(FiltraError):
    """A structural invariant failed; the message names the invariant."""


class ParseError(ValidationError):
    """Workspace text is malformed, or names something a constructor refuses.

    Carries the 1-based line and column of the token it concerns; the
    column counts tokens, the directive being column 1.  A ValidationError
    because it is one: what the library refuses while a directive is read,
    a prime or an acyclic quiver, is raised again as a ParseError there.
    """

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ExtObstruction(FiltraError):
    """An operation needed a vanishing ext group that does not vanish."""


class ZeroExt(FiltraError):
    """A universal extension was requested over a zero ext group."""


class BudgetExceeded(FiltraError):
    """A backtracking search ran out of its node budget."""

    def __init__(self, limit: int):
        super().__init__(f"search budget of {limit} nodes exhausted")
        self.limit = limit


def default_budget() -> int:
    """Budget used when none is passed; FILTRA_BUDGET overrides the default."""
    raw = os.environ.get("FILTRA_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"FILTRA_BUDGET must be an integer, got {raw!r}") from exc


class Budget:
    """Mutable node counter shared along one search tree."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        self.limit = default_budget() if limit is None else limit
        if self.limit <= 0:
            raise ValidationError(
                f"the search budget (FILTRA_BUDGET) must be positive, got {self.limit}")
        self.used = 0

    def spend(self, n: int = 1) -> None:
        """Charge n nodes as n single steps: an overrun stops at the first node past the limit."""
        if self.used + n > self.limit:
            self.used = max(self.used, self.limit) + 1
            raise BudgetExceeded(self.limit)
        self.used += n


_running: contextvars.ContextVar[Optional[Budget]] = contextvars.ContextVar(
    "filtra_running_budget", default=None)


@contextlib.contextmanager
def searching(budget: Optional[Budget] = None) -> Iterator[Budget]:
    """Charge every spend() inside the block to one budget.

    That budget is the one given, else the budget of the enclosing search,
    else a fresh Budget(); so a search called from inside another one draws
    on the caller's budget.
    """
    if budget is None:
        budget = _running.get()
        if budget is None:
            budget = Budget()
    token = _running.set(budget)
    try:
        yield budget
    finally:
        _running.reset(token)


def spend(n: int = 1) -> None:
    """Charge n nodes to the running budget; call it only inside searching()."""
    _running.get().spend(n)


_stores: list[dict] = []


def cached(fn=None, *, check=None):
    """fn memoized on its positional arguments until clear_caches(); fn.store is the dict.

    A miss runs fn outside the lookup's except block, so what fn raises
    carries no KeyError of the store as its __context__.  What raises
    stores nothing.  check, given as @cached(check=...), maps the arguments
    to the ones looked up and passed to fn, before the lookup: what it
    refuses is refused even where the store holds an equal key (2.0 == 2).
    """
    if fn is None:
        return functools.partial(cached, check=check)
    store: dict = {}
    _stores.append(store)

    @functools.wraps(fn)
    def wrapper(*args):
        if check is not None:
            args = check(*args)
        try:
            return store[args]
        except KeyError:
            pass
        store[args] = result = fn(*args)
        return result
    wrapper.store = store
    return wrapper


def clear_caches() -> None:
    """Empty the store of every cached function."""
    for store in _stores:
        store.clear()
