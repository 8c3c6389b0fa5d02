"""One store of unpatched ``verify`` check results for a whole test session,
keyed by (check name, kwargs).  The acceptance criteria run and time their
checks themselves and store the results; the mutant table reads them and
runs a check only on a miss, so a full-range check runs once unpatched.
Only an unpatched run may be stored: a run under a mutant never is."""

from __future__ import annotations

from loccoh import verify

_RESULTS: dict[tuple[str, tuple], tuple] = {}


def _key(check: str, kwargs: dict) -> tuple[str, tuple]:
    return check, tuple(sorted(kwargs.items()))


def store(check: str, kwargs: dict, result: tuple) -> None:
    """Record the result of the unpatched ``check`` at ``kwargs``."""
    _RESULTS[_key(check, kwargs)] = result


def unpatched(check: str, kwargs: dict) -> tuple:
    """The stored result of ``check`` at ``kwargs``, running it on a miss;
    call it only where no mutant is applied."""
    key = _key(check, kwargs)
    if key not in _RESULTS:
        _RESULTS[key] = verify.CHECKS[check][0](**kwargs)
    return _RESULTS[key]
