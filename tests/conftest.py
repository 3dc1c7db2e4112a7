import io

import pytest

from kgmon.extract import ArticleDoc, load_dictionary, load_rules
from kgmon.ontology import load_ontology

ONTOLOGY_TEXT = (
    "# people, employers and places\n"
    "CLASS Person\n"
    "CLASS Organization\n"
    "CLASS Company SUBCLASS_OF Organization\n"
    "CLASS Location\n"
    "CLASS City SUBCLASS_OF Location\n"
    "PROPERTY worksFor DOMAIN Person RANGE Organization\n"
    "PROPERTY locatedIn DOMAIN Organization RANGE Location\n"
    "NERMAP PERSON Person\n"
    "NERMAP ORG Organization\n"
    "NERMAP LOC Location\n"
)

DICTIONARY_TEXT = (
    "Alice Chen\tPerson\n"
    "Bob Marsh\tPerson\n"
    "Dana Wu\tPerson\n"
    "Acme Corp\tCompany\n"
    "Globex\tOrganization\n"
    "Initech\tCompany\n"
    "Berlin\tCity\n"
    "Geneva\tCity\n"
    "Lake Victoria\tLocation\n"
)

# Characters at which str.splitlines breaks but a text-mode read does not.
NOT_LINE_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


def codepoint(char):
    """A test id for one character."""
    return f"U+{ord(char):04X}"


def text_mode_lines(text):
    """The lines a text-mode read of `text` yields, without their breaks."""
    return [line.rstrip("\n") for line in io.StringIO(text, newline=None)]


class FakeResponse:
    """What the tests' stand-ins for requests.get and requests.post return."""

    def __init__(self, text="", body=None, error=None):
        self.content = text.encode("utf-8")
        self._body = body
        self._error = error

    def raise_for_status(self):
        if self._error is not None:
            raise self._error

    def json(self):
        return self._body


RULES_TEXT = (
    "r1\t{subject:Person} works for {object:Organization}\tworksFor\n"
    "r2\t{subject:Organization} is based in {object:Location}\tlocatedIn\n"
)


@pytest.fixture(scope="session")
def onto():
    return load_ontology(ONTOLOGY_TEXT)


@pytest.fixture(scope="session")
def dictionary(onto):
    return load_dictionary(DICTIONARY_TEXT, onto)


@pytest.fixture(scope="session")
def rules(onto):
    return load_rules(RULES_TEXT, onto)


@pytest.fixture
def article():
    return ArticleDoc(
        id="a1",
        text="Alice Chen works for Acme Corp. Acme Corp is based in Berlin.",
    )
