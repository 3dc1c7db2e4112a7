"""Deterministic baseline extraction: dictionary NER plus pattern rules.

The extractor is the reference producer. Given the same dictionary, rule
set, and article batch it must emit byte-identical graphs on every run,
so all iteration here happens in sorted or document order and ties are
broken lexicographically.
"""

import logging
import re
from dataclasses import dataclass
from typing import NamedTuple

from kgmon import kernels
from kgmon.graph import (
    EntityAssertion,
    GraphDiagnostics,
    KnowledgeGraph,
    TripleAssertion,
    build_graph,
)
from kgmon.ontology import Ontology, is_permissible

log = logging.getLogger(__name__)

_SLOT_RE = re.compile(r"^\{(subject|object):([^{}\s]+)\}$")
_SENTENCE_END = frozenset(".!?")

# A dictionary match in extract_article: (token_count, surface, class).
_Hit = tuple[int, str, str]


class ExtractError(ValueError):
    pass


@dataclass(frozen=True)
class ArticleDoc:
    id: str
    published_at: int
    text: str


class NerMatch(NamedTuple):
    surface: str
    cls: str
    token_start: int
    token_count: int
    char_offset: int


@dataclass(frozen=True)
class SlotItem:
    role: str  # "subject" or "object"
    cls: str


@dataclass(frozen=True)
class LiteralItem:
    # Casefolded token texts; multi-token literals align against that many
    # consecutive tokens.
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class PatternRule:
    rule_id: str
    items: tuple[SlotItem | LiteralItem, ...]
    predicate: str


@dataclass(frozen=True)
class NerDictionary:
    surface_class: dict[str, str]
    # Scan index consumed by kernels.find_matches: token tuple -> surface
    # (the lexicographically smallest when two surfaces tokenize alike), and
    # first token -> distinct surface lengths in tokens, longest first.
    surfaces: dict[tuple[str, ...], str]
    lengths: dict[str, tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.surface_class)


def _iter_data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        yield lineno, raw


def load_dictionary(text: str, ontology: Ontology) -> NerDictionary:
    """Parse surface<TAB>class lines into a scan-ready dictionary.

    Surfaces are whitespace-normalized; the same surface mapped to two
    classes is an error, to the same class a harmless repeat.
    """
    find_punctuation = kernels.find_punctuation
    token_texts = kernels.token_texts
    surface_class: dict[str, str] = {}
    surfaces: dict[tuple[str, ...], str] = {}
    by_first: dict[str, set[int]] = {}
    for lineno, raw in _iter_data_lines(text):
        fields = raw.split("\t")
        if len(fields) != 2:
            raise ExtractError(f"dictionary line {lineno}: expected 2 fields")
        words = fields[0].split()
        cls = fields[1].strip()
        if not words or not cls:
            raise ExtractError(f"dictionary line {lineno}: empty field")
        if cls not in ontology.classes:
            raise ExtractError(f"dictionary line {lineno}: unknown class {cls!r}")
        surface = " ".join(words)
        held_cls = surface_class.get(surface)
        if held_cls is not None:
            if held_cls != cls:
                raise ExtractError(
                    f"dictionary line {lineno}: surface {surface!r} mapped to both "
                    f"{held_cls!r} and {cls!r}"
                )
            continue
        surface_class[surface] = cls
        # Without ASCII punctuation the tokens are exactly the words.
        toks = (
            tuple(token_texts(surface)) if find_punctuation(surface) else tuple(words)
        )
        held = surfaces.get(toks)
        if held is None or surface < held:
            surfaces[toks] = surface
        by_first.setdefault(toks[0], set()).add(len(toks))

    lengths = {
        first: tuple(sorted(counts, reverse=True)) for first, counts in by_first.items()
    }
    return NerDictionary(
        surface_class=surface_class, surfaces=surfaces, lengths=lengths
    )


def load_rules(text: str, ontology: Ontology) -> list[PatternRule]:
    """Parse rule_id<TAB>template<TAB>predicate lines.

    Templates need exactly one subject and one object slot. Unknown
    classes or predicates are errors; a rule whose slot classes the
    ontology does not permit for its predicate is dropped with a warning.
    """
    rules: list[PatternRule] = []
    seen: set[str] = set()
    for lineno, raw in _iter_data_lines(text):
        fields = raw.split("\t")
        if len(fields) != 3:
            raise ExtractError(f"rules line {lineno}: expected 3 fields")
        rule_id, template, predicate = (f.strip() for f in fields)
        if not rule_id or not template or not predicate:
            raise ExtractError(f"rules line {lineno}: empty field")
        if rule_id in seen:
            raise ExtractError(f"rules line {lineno}: duplicate rule id {rule_id!r}")
        seen.add(rule_id)
        if predicate not in ontology.properties:
            raise ExtractError(
                f"rules line {lineno}: unknown predicate {predicate!r}"
            )

        items: list[SlotItem | LiteralItem] = []
        slot_cls = {"subject": "", "object": ""}
        for piece in template.split():
            m = _SLOT_RE.match(piece)
            if m:
                role, cls = m.group(1), m.group(2)
                if cls not in ontology.classes:
                    raise ExtractError(
                        f"rules line {lineno}: unknown class {cls!r} in slot"
                    )
                if slot_cls[role]:
                    raise ExtractError(
                        f"rules line {lineno}: more than one {role} slot"
                    )
                slot_cls[role] = cls
                items.append(SlotItem(role=role, cls=cls))
                continue
            toks = tuple(t for t, _ in kernels.tokenize(piece))
            if not toks:
                log.warning(
                    "rule %s: literal %r has no tokens, ignored", rule_id, piece
                )
                continue
            if len(toks) != 1:
                log.warning(
                    "rule %s: literal %r spans %d tokens", rule_id, piece, len(toks)
                )
            items.append(LiteralItem(tokens=tuple(t.casefold() for t in toks)))
        if not slot_cls["subject"] or not slot_cls["object"]:
            raise ExtractError(
                f"rules line {lineno}: template needs one subject and one object slot"
            )
        if not is_permissible(
            ontology, slot_cls["subject"], predicate, slot_cls["object"]
        ):
            log.warning(
                "rule %s dropped: %s does not admit (%s, %s)",
                rule_id,
                predicate,
                slot_cls["subject"],
                slot_cls["object"],
            )
            continue
        rules.append(
            PatternRule(rule_id=rule_id, items=tuple(items), predicate=predicate)
        )
    return rules


def dict_ner(text: str, dictionary: NerDictionary) -> list[NerMatch]:
    """Greedy longest-match dictionary scan; case-sensitive, non-overlapping."""
    tokens = kernels.tokenize(text)
    surface_class = dictionary.surface_class
    return [
        NerMatch(surface, surface_class[surface], start, count, tokens[start][1])
        for start, count, surface in kernels.find_matches(
            [t for t, _ in tokens], dictionary.surfaces, dictionary.lengths
        )
    ]


def _sentence_ends(token_texts: list[str]) -> list[int]:
    # End (exclusive) of the sentence holding each token. A sentence closes
    # after each ./!/? token; the trailing fragment is a sentence too.
    ends = [0] * len(token_texts)
    end = len(token_texts)
    for idx in range(len(token_texts) - 1, -1, -1):
        if token_texts[idx] in _SENTENCE_END:
            end = idx + 1
        ends[idx] = end
    return ends


def _match_rule_at(
    rule: PatternRule,
    pos: int,
    end: int,
    folded: list[str],
    match_at: dict[int, _Hit],
    ontology: Ontology,
) -> dict[str, _Hit] | None:
    cursor = pos
    bound: dict[str, _Hit] = {}
    for item in rule.items:
        if isinstance(item, LiteralItem):
            k = len(item.tokens)
            if cursor + k > end:
                return None
            for j in range(k):
                if folded[cursor + j] != item.tokens[j]:
                    return None
            cursor += k
        else:
            hit = match_at.get(cursor)
            if hit is None:
                return None
            count, _, cls = hit
            if cursor + count > end:
                return None
            # A slot at `pos` is a slot-first rule's first item, tried only
            # where the caller found its class admitted.
            if cursor != pos and not ontology.is_subclass(cls, item.cls):
                return None
            bound[item.role] = hit
            cursor += count
    return bound


def extract_article(
    article: ArticleDoc,
    dictionary: NerDictionary,
    rules: list[PatternRule],
    ontology: Ontology,
) -> tuple[list[EntityAssertion], list[TripleAssertion], int]:
    """Extract one article's assertion fragment.

    Every dictionary hit yields an entity assertion whether or not a rule
    fires on it. Rules match within single sentences against contiguous
    token runs. Returns (entities, triples, rejected_triples); rejections
    can only happen if a rule slipped past load-time permissibility checks.
    """
    token_texts = kernels.token_texts(article.text)
    surface_class = dictionary.surface_class
    # token_start -> hit, for each dictionary match in text order.
    match_at: dict[int, _Hit] = {
        start: (count, surface, surface_class[surface])
        for start, count, surface in kernels.find_matches(
            token_texts, dictionary.surfaces, dictionary.lengths
        )
    }
    article_id = article.id
    entities = [
        EntityAssertion(surface, cls, article_id)
        for _, surface, cls in match_at.values()
    ]

    # A rule can only match where its first item does: at a token equal to
    # a literal's first token, or at a dictionary match whose class the
    # slot admits. Trying those positions in ascending order, rule by rule,
    # keeps the output order of trying every rule at every token. Each
    # list of positions is computed once per article, when a rule needs it.
    folded = [t.casefold() for t in token_texts]
    sentence_end = _sentence_ends(folded)
    match_classes = {cls for _, _, cls in match_at.values()}
    literal_starts: dict[str, list[int]] = {}
    slot_starts: dict[str, list[int]] = {}

    triples: list[TripleAssertion] = []
    rejected = 0
    for rule in rules:
        first = rule.items[0]
        if isinstance(first, LiteralItem):
            tok = first.tokens[0]
            starts = literal_starts.get(tok)
            if starts is None:
                starts = literal_starts[tok] = [
                    pos for pos, t in enumerate(folded) if t == tok
                ]
        else:
            starts = slot_starts.get(first.cls)
            if starts is None:
                fits = {c for c in match_classes if ontology.is_subclass(c, first.cls)}
                starts = slot_starts[first.cls] = [
                    pos for pos, (_, _, cls) in match_at.items() if cls in fits
                ]
        for pos in starts:
            bound = _match_rule_at(
                rule, pos, sentence_end[pos], folded, match_at, ontology
            )
            if bound is None:
                continue
            (_, subj, subj_cls), (_, obj, obj_cls) = bound["subject"], bound["object"]
            if not is_permissible(ontology, subj_cls, rule.predicate, obj_cls):
                rejected += 1
                log.warning(
                    "rule %s produced impermissible triple (%s, %s, %s)",
                    rule.rule_id,
                    subj,
                    rule.predicate,
                    obj,
                )
                continue
            triples.append(
                TripleAssertion(subj, rule.predicate, obj, article_id)
            )
    return entities, triples, rejected


def build_baseline(
    articles: list[ArticleDoc],
    dictionary: NerDictionary,
    rules: list[PatternRule],
    ontology: Ontology,
    batch_id: str = "",
    timestamp: int = 0,
) -> tuple[KnowledgeGraph, GraphDiagnostics]:
    """Extract each article and union the fragments into one batch graph.

    The result is independent of article order.
    """
    ids = [a.id for a in articles]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ExtractError(f"duplicate article ids in batch: {', '.join(dupes)}")

    entity_records: list[EntityAssertion] = []
    triple_records: list[TripleAssertion] = []
    rejected = 0
    for article in articles:
        ents, trips, rej = extract_article(article, dictionary, rules, ontology)
        entity_records.extend(ents)
        triple_records.extend(trips)
        rejected += rej

    graph, diags = build_graph(
        entity_records, triple_records, batch_id=batch_id, timestamp=timestamp
    )
    if rejected:
        diags.notes.append(f"{rejected} rule triples failed permissibility")
    return graph, diags
