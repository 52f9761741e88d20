"""The design-rule registry.

``ALL_RULES`` lists one instance of every rule in id order; the engine
and the CLI ``--select`` / ``--ignore`` flags resolve ids through
:func:`get_rules`.  See ``docs/LINT_RULES.md`` for the catalog.
"""

from __future__ import annotations

from repro.analysis.rules.annotations import PublicAPIAnnotationRule
from repro.analysis.rules.base import ModuleUnderCheck, Rule
from repro.analysis.rules.clocks import RawClockRule
from repro.analysis.rules.defaults import MutableDefaultRule
from repro.analysis.rules.dtypes import ExplicitDtypeRule
from repro.analysis.rules.excepts import BareExceptRule
from repro.analysis.rules.exports import DunderAllRule
from repro.analysis.rules.floats import FloatEqualityRule

__all__ = [
    "Rule",
    "ModuleUnderCheck",
    "MutableDefaultRule",
    "FloatEqualityRule",
    "PublicAPIAnnotationRule",
    "ExplicitDtypeRule",
    "BareExceptRule",
    "DunderAllRule",
    "RawClockRule",
    "ALL_RULES",
    "get_rules",
]

#: One instance of every rule, in id order.  Ids are unique and sorted
#: but not contiguous: retired ids (RPR101, RPR102, RPR110) are not
#: reused, so an old ``noqa`` or ``--select`` never names a new rule.
ALL_RULES: tuple[Rule, ...] = (
    MutableDefaultRule(),
    FloatEqualityRule(),
    PublicAPIAnnotationRule(),
    ExplicitDtypeRule(),
    BareExceptRule(),
    DunderAllRule(),
    RawClockRule(),
)


def get_rules(
    select: list[str] | None = None, ignore: list[str] | None = None
) -> tuple[Rule, ...]:
    """Resolve a rule subset from ``--select`` / ``--ignore`` id lists.

    Parameters
    ----------
    select:
        Rule ids to run (default: all).
    ignore:
        Rule ids to drop after selection.

    Raises
    ------
    ValueError
        on an id that names no known rule.
    """
    known = {rule.id for rule in ALL_RULES}
    for rule_id in (select or []) + (ignore or []):
        if rule_id not in known:
            raise ValueError(
                f"unknown rule id {rule_id!r}; known: {sorted(known)}"
            )
    rules = ALL_RULES
    if select:
        rules = tuple(r for r in rules if r.id in select)
    if ignore:
        rules = tuple(r for r in rules if r.id not in ignore)
    return rules
