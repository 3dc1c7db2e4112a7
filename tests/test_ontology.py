import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgmon.ontology import (
    Ontology,
    OntologyError,
    is_permissible,
    load_ontology,
)

from conftest import NOT_LINE_BREAKS, ONTOLOGY_TEXT, codepoint


def test_load_counts_and_lookup(onto):
    assert len(onto.classes) == 5
    assert len(onto.properties) == 2
    assert set(onto.classes) == {"Person", "Organization", "Company", "Location", "City"}
    assert onto.properties["worksFor"].domain == "Person"
    assert onto.properties["worksFor"].range == "Organization"


def test_comments_and_blank_lines_ignored():
    text = "\n# header\n\nCLASS A\n   \n# tail\nCLASS B SUBCLASS_OF A\n"
    onto = load_ontology(text)
    assert set(onto.classes) == {"A", "B"}
    assert onto.classes["B"].parent == "A"


def test_forward_reference_to_parent():
    onto = load_ontology("CLASS Child SUBCLASS_OF Parent\nCLASS Parent\n")
    assert onto.classes["Child"].parent == "Parent"
    assert onto.depths["Child"] == 1


def test_depths_along_chain():
    onto = load_ontology(
        "CLASS A\nCLASS B SUBCLASS_OF A\nCLASS C SUBCLASS_OF B\nCLASS D SUBCLASS_OF C\n"
    )
    assert [onto.depths[c] for c in "ABCD"] == [0, 1, 2, 3]


def test_ancestors_nearest_first(onto):
    assert onto.ancestors("Company") == ["Organization"]
    assert onto.ancestors("Person") == []
    deep = load_ontology("CLASS A\nCLASS B SUBCLASS_OF A\nCLASS C SUBCLASS_OF B\n")
    assert deep.ancestors("C") == ["B", "A"]


def test_lineage_reflexive_and_transitive(onto):
    assert onto.lineage == {
        "Person": {"Person"},
        "Organization": {"Organization"},
        "Company": {"Company", "Organization"},
        "Location": {"Location"},
        "City": {"City", "Location"},
    }
    deep = load_ontology("CLASS A\nCLASS B SUBCLASS_OF A\nCLASS C SUBCLASS_OF B\n")
    assert deep.lineage["C"] == {"A", "B", "C"}


def test_directly_constructed_ontology_agrees_with_loaded():
    text = (
        "CLASS A\nCLASS B SUBCLASS_OF A\nCLASS C SUBCLASS_OF B\n"
        "CLASS D SUBCLASS_OF A\nCLASS E\nCLASS F SUBCLASS_OF E\n"
    )
    loaded = load_ontology(text)
    direct = Ontology(
        classes=dict(loaded.classes),
        properties={},
        depths=dict(loaded.depths),
    )
    names = sorted(loaded.classes)
    for name in names:
        assert direct.descendants(name) == loaded.descendants(name)
        for ancestor in names:
            expected = name == ancestor or ancestor in loaded.ancestors(name)
            assert (ancestor in direct.lineage[name]) is expected
            assert (ancestor in loaded.lineage[name]) is expected
    assert direct.lineage == loaded.lineage


def test_descendants_strict_and_sorted():
    onto = load_ontology(
        "CLASS A\nCLASS C SUBCLASS_OF A\nCLASS B SUBCLASS_OF A\nCLASS D SUBCLASS_OF B\n"
    )
    assert onto.descendants("A") == ["B", "C", "D"]
    assert onto.descendants("D") == []


def test_unknown_class_queries_raise(onto):
    with pytest.raises(OntologyError):
        onto.ancestors("Nope")
    with pytest.raises(OntologyError):
        onto.descendants("Nope")
    assert "Nope" not in onto.lineage


def test_duplicate_declarations_rejected():
    with pytest.raises(OntologyError, match="duplicate class"):
        load_ontology("CLASS A\nCLASS A\n")
    with pytest.raises(OntologyError, match="duplicate property"):
        load_ontology("CLASS A\nPROPERTY p DOMAIN A RANGE A\nPROPERTY p DOMAIN A RANGE A\n")
    with pytest.raises(OntologyError, match="duplicate NER tag"):
        load_ontology("CLASS A\nNERMAP T A\nNERMAP T A\n")


def test_unknown_references_rejected():
    with pytest.raises(OntologyError, match="unknown parent"):
        load_ontology("CLASS A SUBCLASS_OF Ghost\n")
    with pytest.raises(OntologyError, match="unknown class"):
        load_ontology("CLASS A\nPROPERTY p DOMAIN A RANGE Ghost\n")
    with pytest.raises(OntologyError, match="unknown class"):
        load_ontology("CLASS A\nPROPERTY p DOMAIN Ghost RANGE A\n")
    with pytest.raises(OntologyError, match="unknown class"):
        load_ontology("CLASS A\nNERMAP T Ghost\n")


def test_subclass_cycle_rejected():
    with pytest.raises(OntologyError, match="cycle"):
        load_ontology("CLASS A SUBCLASS_OF B\nCLASS B SUBCLASS_OF A\n")
    with pytest.raises(OntologyError, match="cycle"):
        load_ontology(
            "CLASS A SUBCLASS_OF C\nCLASS B SUBCLASS_OF A\nCLASS C SUBCLASS_OF B\n"
        )


def test_malformed_lines_rejected():
    for bad in (
        "CLASS\n",
        "CLASS A B\n",
        "CLASS A SUBCLASS_OF\n",
        "PROPERTY p DOMAIN A\n",
        "PROPERTY p A B\n",
        "NERMAP T\n",
        "WIDGET A\n",
    ):
        with pytest.raises(OntologyError, match="line 1"):
            load_ontology(bad)


def test_is_permissible_with_subclasses(onto):
    assert is_permissible(onto, "Person", "worksFor", "Organization")
    assert is_permissible(onto, "Person", "worksFor", "Company")
    assert is_permissible(onto, "Company", "locatedIn", "City")
    assert not is_permissible(onto, "Organization", "worksFor", "Organization")
    assert not is_permissible(onto, "Person", "locatedIn", "City")
    # Undeclared names are not permissible, not errors.
    assert not is_permissible(onto, "Person", "ghostProp", "Organization")
    assert not is_permissible(onto, "Ghost", "worksFor", "Organization")
    assert not is_permissible(onto, "Person", "worksFor", "Ghost")


@st.composite
def _forests_with_properties(draw):
    names = [f"C{i}" for i in range(draw(st.integers(1, 8)))]
    lines = ["CLASS C0"]
    for i, name in enumerate(names[1:], start=1):
        parent = draw(st.none() | st.sampled_from(names[:i]))
        lines.append(f"CLASS {name}" + (f" SUBCLASS_OF {parent}" if parent else ""))
    ends = st.tuples(st.sampled_from(names), st.sampled_from(names))
    for i, (domain, range_) in enumerate(draw(st.lists(ends, max_size=4))):
        lines.append(f"PROPERTY p{i} DOMAIN {domain} RANGE {range_}")
    # Declaration order is free; parents may come after their children.
    draw(st.randoms()).shuffle(lines)
    return load_ontology("\n".join(lines))


def _at_or_below(onto, name, ancestor):
    while name is not None:
        if name == ancestor:
            return True
        name = onto.classes[name].parent
    return False


@settings(max_examples=100, deadline=None)
@given(_forests_with_properties())
def test_is_permissible_agrees_with_its_definition(onto):
    # Every question over the declared names and an undeclared class and
    # property: permissible iff all three are declared and each class
    # equals or lies below its end of the property, walking the parents.
    classes = [*onto.classes, "Ghost"]
    for prop in [*onto.properties, "ghostProp"]:
        pdef = onto.properties.get(prop)
        for s_class in classes:
            for o_class in classes:
                expected = (
                    pdef is not None
                    and s_class in onto.classes
                    and o_class in onto.classes
                    and _at_or_below(onto, s_class, pdef.domain)
                    and _at_or_below(onto, o_class, pdef.range)
                )
                assert is_permissible(onto, s_class, prop, o_class) is expected


def test_source_text_kept_but_not_compared(onto):
    twin = load_ontology(ONTOLOGY_TEXT + "\n# trailing comment\n")
    assert twin == onto
    assert twin.source != onto.source


def test_random_forests_depth_consistency():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 12)
        names = [f"C{i}" for i in range(n)]
        lines = []
        parent_of = {}
        for i, name in enumerate(names):
            if i and rng.random() < 0.6:
                parent_of[name] = rng.choice(names[:i])
                lines.append(f"CLASS {name} SUBCLASS_OF {parent_of[name]}")
            else:
                parent_of[name] = None
                lines.append(f"CLASS {name}")
        rng.shuffle(lines)
        onto = load_ontology("\n".join(lines))
        for name in names:
            expect = 0
            cur = parent_of[name]
            while cur is not None:
                expect += 1
                cur = parent_of[cur]
            assert onto.depths[name] == expect
            assert len(onto.ancestors(name)) == expect


@pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=codepoint)
def test_ontology_comment_keeps_unicode_line_separators(char):
    onto = load_ontology(f"# people{char}and places\nCLASS A\nCLASS B SUBCLASS_OF A\n")
    assert set(onto.classes) == {"A", "B"}


@pytest.mark.parametrize("brk", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_ontology_breaks_lines_as_text_mode_does(brk):
    onto = load_ontology(brk.join(["# note", "CLASS A", "CLASS B SUBCLASS_OF A", ""]))
    assert onto.classes["B"].parent == "A"
    # Line numbers count each \r\n once.
    with pytest.raises(OntologyError, match="line 3: malformed"):
        load_ontology(brk.join(["CLASS A", "", "CLASS", ""]))
