import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscl_sim.names import (
    EmptyComponent,
    EmptyName,
    InvalidName,
    PrefixTable,
    parse_name,
)

COMPONENT = st.text(
    alphabet=st.characters(blacklist_characters="/", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
)
NAME = st.lists(COMPONENT, min_size=1, max_size=6).map("/".join)


def _is_prefix(prefix, name):
    """True when every component of ``prefix`` leads ``name``.

    Reflexive: a name is a prefix of itself.
    """
    prefix_parts, name_parts = prefix.split("/"), name.split("/")
    return name_parts[: len(prefix_parts)] == prefix_parts


def test_parse_resource_uri():
    text = "Gscl1/applications/meter_app/containers/meter_data/content_instances/latest"
    name = parse_name(text)
    assert name == text
    assert len(name.split("/")) == 7


def test_parse_tolerates_one_leading_slash():
    assert parse_name("/a/b") == parse_name("a/b") == "a/b"


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


@pytest.mark.parametrize("bad", [None, b"a/b", ("a", "b"), 7])
def test_parse_rejects_a_non_str(bad):
    with pytest.raises(InvalidName):
        parse_name(bad)


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
    assert parse_name(name) == name
    assert parse_name("/" + name) == name


@given(NAME, NAME, NAME)
def test_prefix_transitive(a, b, c):
    if _is_prefix(a, b) and _is_prefix(b, c):
        assert _is_prefix(a, c)


@given(NAME, st.lists(COMPONENT, max_size=3))
def test_prefix_of_own_extension(name, extra):
    assert _is_prefix(name, "/".join([name, *extra]))


# ===== PrefixTable =====


def _brute_force_lpm(entries, query):
    """Oracle: scan all stored prefixes, keep the longest that matches."""
    best = None
    for prefix, value in entries.items():
        if _is_prefix(prefix, query):
            if best is None or len(prefix.split("/")) > len(best[0].split("/")):
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
    # shallow first, then by components
    assert list(table.items()) == [("a", 2), ("b", 0), ("a/b", 1), ("a/b/c", 3)]


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
