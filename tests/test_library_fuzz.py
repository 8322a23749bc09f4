"""Property test: the library loader against single-field payload mutations.

A format-4 payload is mutated in one field: a dict value or list item is
deleted, moved to a nearby value of its kind (an integer by a few, one
character of a string replaced, deleted or inserted, a list item
duplicated or the list reversed), or replaced by an unrelated JSON value.
On a 12 x 12 corpus grid and a 2-link corpus arm, whose joints wrap, the
load must either raise a typed ``PlanningError`` or give a library in
which every covered goal has an answer: its no-refine query from home is
a valid path from home to the goal. The loader derives every pointer and
step bound from the stored attractors, so no loaded library may fail a
query with ``StaleLibrary``.
"""

import copy

import pytest

from coverplan import CoverPlanner, corpus, errors
from coverplan import cover as pre
from coverplan.search import path_is_valid

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-300, 300),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.just({}),
)


@pytest.fixture(scope="module")
def setups():
    """name -> (scenario, format-4 payload of its seed-0 library)."""
    built = {}
    for name, scenario in (
        ("grid12_d20", corpus.make_grid(12, 0.2, seed=12 * 31 + 20)),
        ("arm16_o2", corpus.make_arm(16, 2, seed=16 * 7 + 2)),
    ):
        built[name] = scenario, pre.library_to_payload(pre.preprocess(scenario, seed=0))
    return built


def containers(node, path=()):
    """The path of every non-empty dict or list in a JSON tree."""
    if isinstance(node, (dict, list)) and node:
        yield path
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from containers(child, path + (key,))


def nearby(value, alphabet):
    """A value of the same kind a small edit away; None where there is none."""
    if isinstance(value, bool) or not isinstance(value, (int, str, list)):
        return None
    if isinstance(value, int):
        return st.integers(-3, 3).filter(bool).map(lambda d: value + d)
    if isinstance(value, list):
        if not value:
            return None
        at = st.integers(0, len(value) - 1)
        duplicated = at.map(lambda k: value[:k] + value[k : k + 1] + value[k:])
        return st.one_of(duplicated, st.just(value[::-1]))
    at, char = st.integers(0, len(value)), st.sampled_from(alphabet)
    return st.one_of(
        st.tuples(at, char).map(lambda t: value[: t[0]] + t[1] + value[t[0] + 1 :]),
        at.map(lambda k: value[:k] + value[k + 1 :]),
        st.tuples(at, char).map(lambda t: value[: t[0]] + t[1] + value[t[0] :]),
    )


# characters of the payload's strings: the fingerprint's hex digits and the
# region ids' letters
ALPHABET = "0123456789abcdefiklnprz"


@st.composite
def mutated(draw, payload):
    """A deep copy of ``payload`` with one field deleted or changed."""
    payload = copy.deepcopy(payload)
    node = payload
    for key in draw(st.sampled_from(list(containers(payload)))):
        node = node[key]
    key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    edit = nearby(node[key], ALPHABET)
    nearby_actions = ("nearby",) * 3 if edit is not None else ()
    action = draw(st.sampled_from(("delete", "replace") + nearby_actions))
    if action == "delete":
        del node[key]
    else:
        node[key] = draw(edit if action == "nearby" else JSON_VALUES)
    return payload


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("name", ["grid12_d20", "arm16_o2"])
def test_mutated_payload_is_refused_or_answers_validly(setups, name, data):
    scenario, payload = setups[name]
    payload = data.draw(mutated(payload))
    try:
        library = pre.library_from_payload(payload, scenario)
    except errors.PlanningError:
        return
    home = scenario.s_home
    planner = CoverPlanner.from_library(scenario, library)
    for goal in sorted(set().union(*(rc.covered for rc in library.regions))):
        path = planner.plan(goal, home, refine=False).path
        assert path.start == home and path.goal == goal, goal
        assert path_is_valid(scenario, path), goal
