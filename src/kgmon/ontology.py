"""Schema definition: class forest and properties with domain/range.

The ontology is loaded once from a line-oriented text file and treated as
immutable afterwards; every downstream component (extraction, metrics,
validation) queries it read-only.
"""

from dataclasses import dataclass, field
from functools import cached_property

from kgmon.kernels import split_lines

__all__ = [
    "OntologyError",
    "ClassDef",
    "PropertyDef",
    "Ontology",
    "load_ontology",
    "is_permissible",
]


class OntologyError(ValueError):
    """Raised for malformed or inconsistent ontology definitions."""


@dataclass(frozen=True)
class ClassDef:
    name: str
    parent: str | None = None


@dataclass(frozen=True)
class PropertyDef:
    name: str
    domain: str
    range: str


@dataclass(frozen=True)
class Ontology:
    """Validated schema. Treat as immutable; safe to share across threads."""

    classes: dict[str, ClassDef]
    properties: dict[str, PropertyDef]
    depths: dict[str, int]
    source: str = field(compare=False, default="")

    def ancestors(self, name: str) -> list[str]:
        """Chain of parents from `name` up to its root, nearest first."""
        if name not in self.classes:
            raise OntologyError(f"unknown class: {name!r}")
        out = []
        parent = self.classes[name].parent
        while parent is not None:
            out.append(parent)
            parent = self.classes[parent].parent
        return out

    @cached_property
    def lineage(self) -> dict[str, frozenset[str]]:
        """Each class mapped to the set of itself and its ancestors, so
        "is C the same as D or below it" is `D in lineage[C]`. Derived on
        first use, so an Ontology built directly answers the same as one
        from load_ontology."""
        return {
            name: frozenset((name, *self.ancestors(name))) for name in self.classes
        }

    def descendants(self, name: str) -> list[str]:
        """All classes strictly below `name`, sorted."""
        if name not in self.classes:
            raise OntologyError(f"unknown class: {name!r}")
        out = [c for c, line in self.lineage.items() if name in line and c != name]
        out.sort()
        return out


def _parse_line(line: str, lineno: int) -> tuple:
    tokens = line.split()
    kind = tokens[0]
    if kind == "CLASS":
        if len(tokens) == 2:
            return ("class", tokens[1], None)
        if len(tokens) == 4 and tokens[2] == "SUBCLASS_OF":
            return ("class", tokens[1], tokens[3])
    elif kind == "PROPERTY":
        if len(tokens) == 6 and tokens[2] == "DOMAIN" and tokens[4] == "RANGE":
            return ("property", tokens[1], tokens[3], tokens[5])
    elif kind == "NERMAP":
        if len(tokens) == 3:
            return ("nermap", tokens[1], tokens[2])
    raise OntologyError(f"line {lineno}: malformed ontology line: {line!r}")


def load_ontology(document: str) -> Ontology:
    """Parse and validate an ontology document.

    Declarations may appear in any order; parents and NER-map targets are
    resolved after the whole document is read. Rejects duplicate names,
    unknown references, and subclass cycles. NERMAP lines are checked like
    the others and otherwise unused: nothing downstream reads the map.
    """
    classes: dict[str, ClassDef] = {}
    properties: dict[str, PropertyDef] = {}
    ner_map: dict[str, str] = {}

    for lineno, raw in enumerate(split_lines(document), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parsed = _parse_line(line, lineno)
        if parsed[0] == "class":
            _, name, parent = parsed
            if name in classes:
                raise OntologyError(f"line {lineno}: duplicate class name: {name!r}")
            classes[name] = ClassDef(name, parent)
        elif parsed[0] == "property":
            _, name, domain, range_ = parsed
            if name in properties:
                raise OntologyError(f"line {lineno}: duplicate property name: {name!r}")
            properties[name] = PropertyDef(name, domain, range_)
        else:
            _, tag, target = parsed
            if tag in ner_map:
                raise OntologyError(f"line {lineno}: duplicate NER tag: {tag!r}")
            ner_map[tag] = target

    for cdef in classes.values():
        if cdef.parent is not None and cdef.parent not in classes:
            raise OntologyError(
                f"class {cdef.name!r} names unknown parent {cdef.parent!r}"
            )
    for pdef in properties.values():
        for ref in (pdef.domain, pdef.range):
            if ref not in classes:
                raise OntologyError(
                    f"property {pdef.name!r} references unknown class {ref!r}"
                )
    for tag, target in ner_map.items():
        if target not in classes:
            raise OntologyError(f"NER tag {tag!r} maps to unknown class {target!r}")

    depths = _compute_depths(classes)
    return Ontology(
        classes=classes,
        properties=properties,
        depths=depths,
        source=document,
    )


def _compute_depths(classes: dict[str, ClassDef]) -> dict[str, int]:
    """Depth of every class, rejecting subclass cycles along the way."""
    depths: dict[str, int] = {}
    for name in classes:
        if name in depths:
            continue
        chain = []
        current: str | None = name
        while current is not None and current not in depths:
            if current in chain:
                cycle = chain[chain.index(current):] + [current]
                raise OntologyError(
                    "subclass cycle involving: " + ", ".join(sorted(set(cycle)))
                )
            chain.append(current)
            current = classes[current].parent
        base = depths[current] if current is not None else -1
        for i, cls in enumerate(reversed(chain)):
            depths[cls] = base + 1 + i
    return depths


def is_permissible(
    ontology: Ontology, s_class: str, prop: str, o_class: str
) -> bool:
    """True iff the (subject class, property, object class) combination is
    allowed: the property and both classes are declared, the subject class
    equals or descends from the property's domain, and the object class
    from its range."""
    pdef = ontology.properties.get(prop)
    lineage = ontology.lineage
    return (
        pdef is not None
        and pdef.domain in lineage.get(s_class, ())
        and pdef.range in lineage.get(o_class, ())
    )
