import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscl_sim.names import (
    EmptyComponent,
    EmptyName,
    HierarchicalName,
    InvalidName,
    PrefixTable,
    parse_name,
)

COMPONENT = st.text(
    alphabet=st.characters(blacklist_characters="/", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
)
NAME = st.builds(HierarchicalName, st.lists(COMPONENT, min_size=1, max_size=6).map(tuple))


def _is_prefix(prefix, name):
    """True when every component of ``prefix`` leads ``name``.

    Reflexive: a name is a prefix of itself.
    """
    if len(prefix.components) > len(name.components):
        return False
    return name.components[: len(prefix.components)] == prefix.components


def test_parse_resource_uri():
    name = parse_name(
        "Gscl1/applications/meter_app/containers/meter_data/content_instances/latest"
    )
    assert len(name) == 7
    assert name.components[0] == "Gscl1"
    assert name.components[-1] == "latest"


def test_parse_tolerates_one_leading_slash():
    assert parse_name("/a/b") == parse_name("a/b")


def test_str_round_trip():
    text = "Gscl1/applications/meter_app"
    assert str(parse_name(text)) == text


@pytest.mark.parametrize("bad", ["", "/"])
def test_parse_empty(bad):
    with pytest.raises(EmptyName):
        parse_name(bad)


@pytest.mark.parametrize("bad", ["a//b", "a/", "//a", "/a//"])
def test_parse_empty_component(bad):
    with pytest.raises(EmptyComponent):
        parse_name(bad)


def test_constructor_rejects_slash_in_component():
    with pytest.raises(InvalidName):
        HierarchicalName(("a/b",))


def test_constructor_rejects_empty():
    with pytest.raises(EmptyName):
        HierarchicalName(())
    with pytest.raises(EmptyComponent):
        HierarchicalName(("a", ""))


def test_extend():
    base = parse_name("Gscl1")
    assert str(base.extend("applications", "app")) == "Gscl1/applications/app"


def test_prefix_is_per_component_not_per_character():
    assert not _is_prefix(parse_name("scl/meter"), parse_name("scl/meter_app"))
    assert _is_prefix(parse_name("scl/meter"), parse_name("scl/meter/x"))


def test_prefix_reflexive_and_proper():
    name = parse_name("a/b/c")
    assert _is_prefix(name, name)
    assert _is_prefix(parse_name("a"), name)
    assert not _is_prefix(name, parse_name("a/b"))
    assert not _is_prefix(parse_name("b"), name)


@given(NAME)
def test_parse_round_trip_property(name):
    assert parse_name(str(name)) == name


def _uncached_text_and_hash(name):
    return "/".join(name.components), hash((name.components,))


@given(st.lists(COMPONENT, min_size=1, max_size=6), st.lists(COMPONENT, max_size=3))
def test_cached_text_and_hash_match_definitions(parts, extra):
    """The text joined at construction is the components' join, and the
    hash is the dataclass's, however the name was built."""
    direct = HierarchicalName(tuple(parts))
    parsed = parse_name("/".join(parts))
    extended = direct.extend(*extra)
    for name in (direct, parsed, extended):
        assert (str(name), hash(name)) == _uncached_text_and_hash(name)
    assert hash(direct) == hash(parsed) and {direct: 1}[parsed] == 1


def test_unpickled_name_hashes_in_another_process():
    """String hashes differ between processes, so a name unpickled in
    another process must hash by that process's string hashes."""
    script = (
        "import pickle, sys; from oscl_sim.names import parse_name; "
        "name = pickle.loads(sys.stdin.buffer.read()); "
        "assert {parse_name('a/b/c'): 1}[name] == 1"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=pickle.dumps(parse_name("a/b/c")),
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()


# few components, so that two drawn names are often equal
SHORT_NAME = st.builds(
    HierarchicalName, st.lists(st.sampled_from(["a", "b", "ab"]), min_size=1, max_size=3).map(tuple)
)


@given(NAME | SHORT_NAME, NAME | SHORT_NAME)
def test_names_are_equal_exactly_when_their_texts_are(a, b):
    """Tables looked up by name key by the text, so they rest on this."""
    assert (a == b) == (a.text == b.text)


@given(NAME, NAME, NAME)
def test_prefix_transitive(a, b, c):
    if _is_prefix(a, b) and _is_prefix(b, c):
        assert _is_prefix(a, c)


@given(NAME, st.lists(COMPONENT, max_size=3))
def test_prefix_of_own_extension(name, extra):
    assert _is_prefix(name, HierarchicalName(name.components + tuple(extra)))


# ===== PrefixTable =====


def _brute_force_lpm(entries, query):
    """Oracle: scan all stored prefixes, keep the longest that matches."""
    best = None
    for prefix, value in entries.items():
        if _is_prefix(prefix, query):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, value)
    return best


def test_table_set_get():
    table = PrefixTable()
    a = parse_name("a")
    table.set(a, 1)
    assert table.get(a) == 1
    assert a in table
    assert table.get(parse_name("a/b")) is None
    assert len(table) == 1
    table.set(a, 2)  # overwrite keeps size
    assert table.get(a) == 2
    assert len(table) == 1


def test_longest_prefix_match_picks_deepest():
    table = PrefixTable()
    table.set(parse_name("a"), "short")
    table.set(parse_name("a/b/c"), "long")
    table.set(parse_name("x"), "other")

    assert table.longest_prefix_match(parse_name("a/b/c/d")) == (parse_name("a/b/c"), "long")
    assert table.longest_prefix_match(parse_name("a/b")) == (parse_name("a"), "short")
    assert table.longest_prefix_match(parse_name("y")) is None
    # intermediate node without a value is not a match
    assert table.longest_prefix_match(parse_name("x/q")) == (parse_name("x"), "other")


def test_items_enumerates_everything():
    table = PrefixTable()
    names = [parse_name(t) for t in ("b", "a/b", "a", "a/b/c")]
    for i, n in enumerate(names):
        table.set(n, i)
    assert dict(table.items()) == {n: i for i, n in enumerate(names)}


@given(
    st.dictionaries(NAME, st.integers(), min_size=0, max_size=12),
    st.lists(NAME, min_size=1, max_size=12),
)
def test_longest_prefix_match_against_oracle(entries, queries):
    table = PrefixTable()
    for prefix, value in entries.items():
        table.set(prefix, value)
    for query in queries:
        assert table.longest_prefix_match(query) == _brute_force_lpm(entries, query)


@given(st.dictionaries(NAME, st.integers(), max_size=12))
def test_exact_get_matches_mapping(entries):
    table = PrefixTable()
    for prefix, value in entries.items():
        table.set(prefix, value)
    assert len(table) == len(entries)
    for prefix, value in entries.items():
        assert table.get(prefix) == value
