"""Folding expert-stated assignments into data-derived ones.

An expert entry of full ignorance (all mass on the whole frame) encodes "no
opinion" and never overwrites anything on its own. Two overwrite policies
exist: per evidence item (part) and per whole parameter (all). Each expert
entry a policy adopts is rebuilt on the generated set's Frame object, so the
modified set's entries all share one frame.
"""

from __future__ import annotations

from .belief import MassFunction, is_vacuous
from .errors import FrameMismatchError
from .extract import BpaSet


def part_modify(generated: BpaSet, expert: BpaSet) -> BpaSet:
    """Swap in the expert entry for each evidence item where one is stated.

    Items with no expert entry, or a vacuous one, keep the generated mass
    unchanged; each output entry is exactly one of the two inputs, never a
    blend. Expert items absent from the generated set are ignored here.
    """
    if expert.frame != generated.frame:
        raise FrameMismatchError("expert table frame differs from the generated set")
    entries = {}
    for item, m in generated.entries.items():
        stated = expert.entries.get(item)
        adopt = stated is not None and not is_vacuous(stated)
        entries[item] = stated.on_frame(generated.frame) if adopt else m
    return BpaSet(
        generated.frame, entries, method=_tag(generated.method, "part"), variant=generated.variant
    )


def all_modify(generated: BpaSet, expert: BpaSet) -> BpaSet:
    """Adopt the expert's whole view of any parameter they have an opinion on.

    A parameter counts as opined when at least one of its expert entries is
    non-vacuous. Every class of such a parameter is then replaced by the
    expert entry, vacuous where the expert stated or implied ignorance (which
    erases the generated information for that class), and expert items for
    classes the data never produced are appended. Parameters whose expert
    entries are all vacuous or absent pass through untouched.
    """
    if expert.frame != generated.frame:
        raise FrameMismatchError("expert table frame differs from the generated set")
    opined = {item.parameter for item, m in expert.entries.items() if not is_vacuous(m)}
    entries = {}
    for item, m in generated.entries.items():
        if item.parameter in opined:
            stated = expert.entries.get(item)
            entries[item] = (
                stated.on_frame(generated.frame) if stated is not None
                else MassFunction.vacuous(generated.frame)
            )
        else:
            entries[item] = m
    for item, m in expert.entries.items():
        if item.parameter in opined and item not in entries:
            entries[item] = m.on_frame(generated.frame)
    return BpaSet(
        generated.frame, entries, method=_tag(generated.method, "all"), variant=generated.variant
    )


def _tag(method: str, mode: str) -> str:
    # idempotent so re-applying a modification does not grow the descriptor
    suffix = f"+{mode}"
    if method.endswith(suffix):
        return method
    return f"{method}{suffix}" if method else mode
