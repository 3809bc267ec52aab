"""Property-based oracle tests for the compiled resolution plans.

The compiled dispatch (`DBObject.get_member` through
:class:`repro.core.resolution.ResolutionPlan`) must be *bit-for-bit*
equivalent to the original interpretive walk, which survives as
:func:`repro.core.resolution.naive_get_member`.  The properties here build
randomized schemas — diamonds, permeability subsets, defaults, dynamic
types — and randomized object graphs with rebinding and deletion, then
compare every member read on both resolvers, including the exception type
and message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import resolution
from repro.core.attributes import AttributeSpec
from repro.core.domains import ANY
from repro.core.inheritance import InheritanceRelationshipType
from repro.core.objects import DBObject, bind, new_object
from repro.core.objtype import ObjectType
from repro.errors import (
    InheritanceError,
    ObjectDeletedError,
    SchemaError,
    UnknownAttributeError,
)

MEMBER_POOL = ("alpha", "beta", "gamma", "delta")
PROBE_NAMES = MEMBER_POOL + ("surrogate", "nosuchmember")

_counter = [0]


def _uname(prefix):
    _counter[0] += 1
    return f"{prefix}_{_counter[0]}"


def assert_resolvers_agree(obj: DBObject, name: str) -> None:
    """Plan-based get_member must match the interpretive oracle exactly."""
    try:
        expected = resolution.naive_get_member(obj, name)
    except Exception as exc:  # noqa: BLE001 - we re-assert the exact type
        with pytest.raises(type(exc)) as caught:
            obj.get_member(name)
        assert str(caught.value) == str(exc)
        return
    assert obj.get_member(name) == expected
    assert obj.is_member_inherited(name) == resolution.naive_is_member_inherited(
        obj, name
    )


def check_object(obj: DBObject) -> None:
    for name in PROBE_NAMES:
        assert_resolvers_agree(obj, name)
    if not obj.deleted:
        # visible_member_names comes straight off the plan; re-derive the
        # canonical order the interpretive version produced.
        names = ["surrogate"]
        names.extend(obj.object_type.effective_attributes())
        names.extend(obj.object_type.effective_subclasses())
        names.extend(obj.object_type.effective_subrels())
        seen = set()
        expected = tuple(n for n in names if not (n in seen or seen.add(n)))
        assert obj.visible_member_names() == expected


# ---------------------------------------------------------------------------
# randomized schemas + object graphs
# ---------------------------------------------------------------------------

member_subsets = st.sets(st.sampled_from(MEMBER_POOL), min_size=1, max_size=4)


@st.composite
def schema_actions(draw):
    """A recipe: transmitter attrs, two permeability subsets, object script."""
    transmitter_members = sorted(draw(member_subsets))
    # Which of the transmitter's members carry defaults.
    defaulted = sorted(
        draw(st.sets(st.sampled_from(transmitter_members), max_size=4))
    )
    perm_a = sorted(draw(st.sets(st.sampled_from(transmitter_members), min_size=1)))
    perm_b = sorted(draw(st.sets(st.sampled_from(transmitter_members), min_size=1)))
    values = draw(
        st.lists(st.integers(min_value=0, max_value=99), min_size=8, max_size=8)
    )
    # Script bits: bind via A?, bind via B?, set locals?, rebind?, delete?
    script = draw(st.tuples(*(st.booleans() for _ in range(6))))
    allow_dynamic = draw(st.booleans())
    return (transmitter_members, defaulted, perm_a, perm_b, values, script,
            allow_dynamic)


@settings(max_examples=60, deadline=None)
@given(recipe=schema_actions())
def test_plan_matches_oracle_over_random_schemas(recipe):
    (transmitter_members, defaulted, perm_a, perm_b, values, script,
     allow_dynamic) = recipe
    bind_a, bind_b, set_locals, do_rebind, do_delete, declare_b_first = script

    attrs = {}
    for index, member in enumerate(transmitter_members):
        if member in defaulted:
            attrs[member] = AttributeSpec(member, ANY, default=index * 1000)
        else:
            attrs[member] = ANY
    transmitter_type = ObjectType(_uname("Trans"), attributes=attrs)
    rel_a = InheritanceRelationshipType(
        _uname("RelA"), transmitter_type=transmitter_type, inheriting=perm_a
    )
    rel_b = InheritanceRelationshipType(
        _uname("RelB"), transmitter_type=transmitter_type, inheriting=perm_b
    )
    inheritor_type = ObjectType(_uname("Inh"))
    if allow_dynamic:
        inheritor_type.allow_dynamic = True
    # Declaration order is the diamond-disambiguation order; exercise both.
    order = (rel_b, rel_a) if declare_b_first else (rel_a, rel_b)
    for rel in order:
        inheritor_type.declare_inheritor_in(rel)

    t1 = new_object(transmitter_type)
    t2 = new_object(transmitter_type)
    for index, member in enumerate(transmitter_members):
        t1.set_attribute(member, values[index % len(values)])
        if index % 2 == 0:
            t2.set_attribute(member, values[(index + 3) % len(values)])
    inh = new_object(inheritor_type)

    if set_locals and not (bind_a or bind_b):
        # Unbound inheritors may hold local values for inheritable members
        # (classical generalization).
        for index, member in enumerate(sorted(set(perm_a) | set(perm_b))):
            inh._write_cell(member, values[(index + 5) % len(values)])
    if bind_a:
        bind(inh, t1, rel_a)
    if bind_b:
        bind(inh, t2, rel_b)

    for obj in (inh, t1, t2):
        check_object(obj)

    if do_rebind and bind_a:
        inh.link_for(rel_a).unbind()
        bind(inh, t2, rel_a)
        for obj in (inh, t1, t2):
            check_object(obj)

    if do_delete:
        t1.delete(unbind_inheritors=True)
        for obj in (inh, t1, t2):
            check_object(obj)


@settings(max_examples=40, deadline=None)
@given(
    depth=st.integers(min_value=2, max_value=6),
    probe=st.sampled_from(MEMBER_POOL),
    set_at=st.integers(min_value=0, max_value=6),
)
def test_plan_matches_oracle_on_deep_chains(depth, probe, set_at):
    """k-level transmitter chains: the iterative walk equals the recursion."""
    base_type = ObjectType(
        _uname("ChainBase"), attributes={name: ANY for name in MEMBER_POOL}
    )
    top = new_object(base_type)
    for index, name in enumerate(MEMBER_POOL):
        top.set_attribute(name, index * 7)
    previous_type, previous = base_type, top
    for level in range(depth):
        rel = InheritanceRelationshipType(
            _uname(f"ChainRel{level}"),
            transmitter_type=previous_type,
            inheriting=list(MEMBER_POOL),
        )
        level_type = ObjectType(_uname(f"ChainLevel{level}"))
        level_type.declare_inheritor_in(rel)
        node = new_object(level_type)
        bind(node, previous, rel)
        previous_type, previous = level_type, node
    if set_at <= depth:
        top.set_attribute(probe, 12345)
    for name in PROBE_NAMES:
        assert_resolvers_agree(previous, name)
    assert previous.get_member(probe) == top.get_member(probe)


# ---------------------------------------------------------------------------
# deterministic corners
# ---------------------------------------------------------------------------

def _diamond():
    t_type = ObjectType(_uname("DTrans"), attributes={"alpha": ANY, "beta": ANY})
    rel_a = InheritanceRelationshipType(
        _uname("DRelA"), transmitter_type=t_type, inheriting=["alpha", "beta"]
    )
    rel_b = InheritanceRelationshipType(
        _uname("DRelB"), transmitter_type=t_type, inheriting=["alpha"]
    )
    i_type = ObjectType(_uname("DInh"))
    i_type.declare_inheritor_in(rel_a)
    i_type.declare_inheritor_in(rel_b)
    return t_type, rel_a, rel_b, i_type


def test_diamond_resolves_in_declaration_order():
    t_type, rel_a, rel_b, i_type = _diamond()
    t1, t2 = new_object(t_type), new_object(t_type)
    t1.set_attribute("alpha", "via-a")
    t2.set_attribute("alpha", "via-b")
    inh = new_object(i_type)
    bind(inh, t2, rel_b)
    assert inh.get_member("alpha") == "via-b"
    bind(inh, t1, rel_a)
    # rel_a was declared first: it wins once bound, regardless of bind order.
    assert inh.get_member("alpha") == "via-a"
    assert_resolvers_agree(inh, "alpha")


def test_schema_evolution_recompiles_plan():
    t_type = ObjectType(_uname("ETrans"), attributes={"alpha": ANY})
    i_type = ObjectType(_uname("EInh"))
    inh = new_object(i_type)
    with pytest.raises(UnknownAttributeError):
        inh.get_member("alpha")  # compiles a plan without `alpha`
    epoch_before = resolution.schema_epoch()
    rel = InheritanceRelationshipType(
        _uname("ERel"), transmitter_type=t_type, inheriting=["alpha"]
    )
    i_type.declare_inheritor_in(rel)
    assert resolution.schema_epoch() > epoch_before
    transmitter = new_object(t_type)
    transmitter.set_attribute("alpha", 11)
    bind(inh, transmitter, rel)
    assert inh.get_member("alpha") == 11  # stale plan was recompiled
    assert "alpha" in inh.visible_member_names()


def test_bound_inheritor_rejects_local_update_with_seed_message():
    t_type, rel_a, _rel_b, i_type = _diamond()
    transmitter, inh = new_object(t_type), new_object(i_type)
    bind(inh, transmitter, rel_a)
    with pytest.raises(InheritanceError) as err:
        inh.set_attribute("alpha", 1)
    assert "must not be updated in the inheritor" in str(err.value)


def test_deleted_transmitter_raises_through_the_chain():
    t_type, rel_a, _rel_b, i_type = _diamond()
    transmitter, inh = new_object(t_type), new_object(i_type)
    transmitter.set_attribute("alpha", 5)
    bind(inh, transmitter, rel_a)
    transmitter._deleted = True  # simulate mid-walk deletion
    with pytest.raises(ObjectDeletedError):
        inh.get_member("alpha")
    assert_resolvers_agree(inh, "alpha")
    transmitter._deleted = False


def test_dynamic_attributes_resolve_and_raise_like_seed():
    dyn_type = ObjectType(_uname("Dyn"))
    dyn_type.allow_dynamic = True
    obj = new_object(dyn_type)
    with pytest.raises(UnknownAttributeError) as err:
        obj.get_member("freeform")
    assert "dynamic attribute" in str(err.value)
    obj.set_attribute("freeform", 3)
    assert obj.get_member("freeform") == 3
    assert_resolvers_agree(obj, "freeform")


def test_subclass_member_is_not_an_attribute_error_preserved():
    element = ObjectType(_uname("Elem"))
    owner_type = ObjectType(_uname("Owner"), subclasses={"parts": element})
    owner = new_object(owner_type)
    with pytest.raises(SchemaError) as err:
        owner.set_attribute("parts", 1)
    assert "is a subclass, not an attribute" in str(err.value)


def test_plan_is_reused_until_schema_changes():
    t_type = ObjectType(_uname("RTrans"), attributes={"alpha": ANY})
    obj = new_object(t_type)
    obj.get_member("alpha")
    plan = t_type._plan
    assert plan is not None
    obj.get_member("alpha")
    assert t_type._plan is plan  # O(1) validation, no recompile
    ObjectType(_uname("Unrelated"))  # any type definition bumps the epoch
    obj.get_member("alpha")
    assert t_type._plan is not plan


def test_plan_permeable_sets_match_rel_declarations():
    _t_type, rel_a, rel_b, i_type = _diamond()
    plan = resolution.plan_for(i_type)
    assert plan.permeable_sets[rel_a.name] == frozenset(["alpha", "beta"])
    assert plan.permeable_sets[rel_b.name] == frozenset(["alpha"])
    assert plan.inherited_names == frozenset(["alpha", "beta"])
