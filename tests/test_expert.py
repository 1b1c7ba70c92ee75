import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidential import formats
from evidential.belief import Frame, MassFunction
from evidential.errors import FrameMismatchError
from evidential.expert import all_modify, is_vacuous, part_modify
from evidential.extract import BpaSet
from evidential.records import EvidenceItemId, Region

from helpers import frame_of, masses_on

GROUPS = Frame(tuple(str(i) for i in range(1, 15)))


def item(param, region):
    return EvidenceItemId(param, region)


def aalb_generated():
    return BpaSet(
        GROUPS,
        {
            item("AALB", Region.ABOVE): MassFunction.from_labels(
                GROUPS, {("5", "6"): 0.6, GROUPS.labels: 0.4}
            ),
            item("AALB", Region.WITHIN): MassFunction.from_labels(
                GROUPS, {("3",): 0.7, GROUPS.labels: 0.3}
            ),
            item("AALB", Region.BELOW): MassFunction.from_labels(
                GROUPS, {("2", "1"): 0.8, GROUPS.labels: 0.2}
            ),
        },
        method="generated",
    )


def aalb_expert():
    return BpaSet(
        GROUPS,
        {
            item("AALB", Region.ABOVE): MassFunction.vacuous(GROUPS),
            item("AALB", Region.WITHIN): MassFunction.vacuous(GROUPS),
            item("AALB", Region.BELOW): MassFunction.from_labels(
                GROUPS, {("6",): 0.46, ("9",): 0.27, ("13",): 0.27}
            ),
        },
        method="expert",
    )


class TestIsVacuous:
    def test_vacuous(self):
        assert is_vacuous(MassFunction.vacuous(GROUPS))

    def test_expert_below_entry_is_not(self):
        m = MassFunction.from_labels(GROUPS, {("6",): 0.46, ("9",): 0.27, ("13",): 0.27})
        assert not is_vacuous(m)

    def test_tolerance_edge(self):
        assert is_vacuous(MassFunction(GROUPS, {GROUPS.full_mask: 0.999999999}))

    def test_near_vacuous_with_second_focus_is_not(self):
        m = MassFunction(GROUPS, {GROUPS.full_mask: 0.999, GROUPS.bit("1"): 0.001})
        assert not is_vacuous(m)


class TestPartModify:
    def test_worked_example(self):
        out = part_modify(aalb_generated(), aalb_expert())
        above = out.entries[item("AALB", Region.ABOVE)]
        assert above.mass(GROUPS.mask_of(["5", "6"])) == 0.6
        assert above.mass(GROUPS.full_mask) == 0.4
        within = out.entries[item("AALB", Region.WITHIN)]
        assert within.mass(GROUPS.bit("3")) == 0.7
        below = out.entries[item("AALB", Region.BELOW)]
        assert dict(below.items()) == {
            GROUPS.bit("6"): 0.46,
            GROUPS.bit("9"): 0.27,
            GROUPS.bit("13"): 0.27,
        }

    def test_parameter_absent_from_expert_table(self):
        generated = aalb_generated()
        out = part_modify(generated, BpaSet(GROUPS, {}, method="expert"))
        assert out.entries == generated.entries

    def test_expert_only_items_ignored(self):
        expert = BpaSet(
            GROUPS,
            {
                **aalb_expert().entries,
                item("ACA", Region.ABOVE): MassFunction.from_labels(GROUPS, {("1",): 1.0}),
            },
            method="expert",
        )
        out = part_modify(aalb_generated(), expert)
        assert item("ACA", Region.ABOVE) not in out.entries

    def test_never_a_blend(self):
        generated, expert = aalb_generated(), aalb_expert()
        out = part_modify(generated, expert)
        for key, m in out.entries.items():
            assert m == generated.entries[key] or m == expert.entries.get(key)

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            part_modify(aalb_generated(), BpaSet(frame_of(3), {}, method="expert"))


class TestAllModify:
    def test_worked_example(self):
        out = all_modify(aalb_generated(), aalb_expert())
        vac = MassFunction.vacuous(GROUPS)
        assert out.entries[item("AALB", Region.ABOVE)] == vac
        assert out.entries[item("AALB", Region.WITHIN)] == vac
        below = out.entries[item("AALB", Region.BELOW)]
        assert below.mass(GROUPS.bit("6")) == 0.46

    def test_omitted_expert_class_becomes_vacuous(self):
        omitted = item("AALB", Region.ABOVE)  # omitted means vacuous
        expert = BpaSet(
            GROUPS,
            {key: m for key, m in aalb_expert().entries.items() if key != omitted},
            method="expert",
        )
        out = all_modify(aalb_generated(), expert)
        assert out.entries[item("AALB", Region.ABOVE)] == MassFunction.vacuous(GROUPS)

    def test_all_vacuous_parameter_untouched(self):
        generated = aalb_generated()
        expert = BpaSet(
            GROUPS,
            {
                item("AALB", Region.ABOVE): MassFunction.vacuous(GROUPS),
                item("AALB", Region.WITHIN): MassFunction.vacuous(GROUPS),
                item("AALB", Region.BELOW): MassFunction.vacuous(GROUPS),
            },
            method="expert",
        )
        assert all_modify(generated, expert).entries == generated.entries
        assert part_modify(generated, expert).entries == generated.entries

    def test_empty_expert_is_identity(self):
        generated = aalb_generated()
        out = all_modify(generated, BpaSet(GROUPS, {}, method="expert"))
        assert out.entries == generated.entries

    def test_expert_only_items_appended_for_opined_parameter(self):
        extra = MassFunction.from_labels(GROUPS, {("4",): 1.0})
        expert = BpaSet(
            GROUPS, {**aalb_expert().entries, item("ACA", Region.BELOW): extra}, method="expert"
        )
        out = all_modify(aalb_generated(), expert)
        assert out.entries[item("ACA", Region.BELOW)] == extra


class TestInvariants:
    def test_part_idempotent(self):
        generated, expert = aalb_generated(), aalb_expert()
        once = part_modify(generated, expert)
        assert part_modify(once, expert) == once

    def test_all_idempotent(self):
        generated, expert = aalb_generated(), aalb_expert()
        once = all_modify(generated, expert)
        assert all_modify(once, expert) == once

    def test_all_restricted_to_stated_classes_agrees_with_part(self):
        generated, expert = aalb_generated(), aalb_expert()
        parted = part_modify(generated, expert)
        alled = all_modify(generated, expert)
        for key, m in expert.entries.items():
            if not is_vacuous(m):
                assert alled.entries[key] == parted.entries[key]


@settings(max_examples=50)
@given(st.data())
def test_modify_entries_always_one_of_the_inputs(data):
    frame = frame_of(4)
    keys = [item("P1", r) for r in Region] + [item("P2", r) for r in Region]
    gen_entries = {k: data.draw(masses_on(frame)) for k in keys}
    exp_keys = data.draw(st.lists(st.sampled_from(keys), unique=True))
    exp_entries = {}
    for k in exp_keys:
        if data.draw(st.booleans()):
            exp_entries[k] = MassFunction.vacuous(frame)
        else:
            exp_entries[k] = data.draw(masses_on(frame))
    generated = BpaSet(frame, gen_entries, method="g")
    expert = BpaSet(frame, exp_entries, method="expert")
    for out in (part_modify(generated, expert), all_modify(generated, expert)):
        vac = MassFunction.vacuous(frame)
        for key, m in out.entries.items():
            assert (
                m == gen_entries.get(key)
                or m == exp_entries.get(key)
                or m == vac
            )


@pytest.mark.parametrize("modify", [part_modify, all_modify])
def test_adopted_entries_share_the_generated_frame(modify, tmp_path):
    """An expert table read from its own file has a Frame object of its own;
    every entry of the modified set is on the generated set's, and the
    written set is byte for byte the one built from entries on that frame."""
    full = aalb_generated()
    below = item("AALB", Region.BELOW)
    # BELOW only in the expert table, so all_modify appends it
    generated = BpaSet(GROUPS, {k: m for k, m in full.entries.items() if k != below})
    same_frame = aalb_expert()
    own_frame = BpaSet.from_dict(same_frame.to_dict())
    assert own_frame.frame == GROUPS and own_frame.frame is not GROUPS
    out = modify(generated, own_frame)
    assert all(m.frame is GROUPS for m in out.entries.values())
    formats.write_bpa_set(out, tmp_path / "own.json")
    formats.write_bpa_set(modify(generated, same_frame), tmp_path / "same.json")
    assert (tmp_path / "own.json").read_bytes() == (tmp_path / "same.json").read_bytes()


def test_on_frame():
    m = MassFunction.from_labels(GROUPS, {("6",): 0.46, ("9",): 0.27, ("13",): 0.27})
    assert m.on_frame(GROUPS) is m
    twin = m.on_frame(Frame(GROUPS.labels))
    assert twin.frame is not GROUPS and twin.frame == GROUPS
    assert dict(twin.items()) == dict(m.items())
    assert twin.singleton_plausibilities() == m.singleton_plausibilities()
    with pytest.raises(FrameMismatchError):
        m.on_frame(Frame(tuple(reversed(GROUPS.labels))))
