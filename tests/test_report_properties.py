"""The canonical JSON writer against ``json.dumps``, its reference, on
random nested documents."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from stabred.report import canonical_json

# quotes, backslashes, control characters, non-ASCII and astral characters,
# lone surrogates and the line separators JavaScript treats as newlines
TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé  \ud800\U0001f600'),
        st.characters(blacklist_categories=()),
    ),
    max_size=8,
)
LEAVES = st.one_of(
    TEXT,
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.booleans(),
    st.none(),
)
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
def test_canonical_json_prints_what_json_dumps_prints(doc):
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc",
    [
        {"a": 1.0},
        {"a": [1, (2, 3)]},
        {"a": {1: "one"}},
        {"a": {"b": [{2: None}]}},
        (1, 2),
        0.5,
    ],
    ids=["float", "tuple", "int-key", "nested-int-key", "top-level-tuple", "top-level-float"],
)
def test_canonical_json_refuses_what_it_does_not_write(doc):
    with pytest.raises(TypeError):
        canonical_json(doc)
