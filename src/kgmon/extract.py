"""Deterministic baseline extraction: dictionary NER plus pattern rules.

The extractor is the reference producer. Given the same dictionary, rule
set, and article batch it must emit byte-identical graphs on every run,
so all iteration here happens in sorted or document order and ties are
broken lexicographically.
"""

import hashlib
import json
import logging
import marshal
import re
import sys
from dataclasses import dataclass

from kgmon import kernels
from kgmon.graph import (
    EntityAssertion,
    GraphDiagnostics,
    KnowledgeGraph,
    TripleAssertion,
    build_graph,
)
from kgmon.monitor import UndecodableFileError, write_atomic
from kgmon.ontology import Ontology, is_permissible

log = logging.getLogger(__name__)

_SLOT_RE = re.compile(r"^\{(subject|object):([^{}\s]+)\}$")
_SENTENCE_END = frozenset(".!?")

# A dictionary match in extract_article: (token_count, surface, class).
_Hit = tuple[int, str, str]

# The index sidecar of a dictionary file is that file's path plus this
# suffix. It holds a 32-byte key, the SHA-256 of the body, and the body:
# marshal data of (surface_class, aliases, lengths).
INDEX_SUFFIX = ".kgmon-index"
# Part of the key; marshal data is specific to the interpreter that wrote it.
_INDEX_FORMAT = f"kgmon dictionary index 2 {sys.implementation.cache_tag}\n".encode()
_DIGEST_SIZE = 32


class ExtractError(ValueError):
    pass


@dataclass(frozen=True)
class ArticleDoc:
    id: str
    published_at: int
    text: str


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
    # Scan index consumed by kernels.find_matches. A surface's key is its
    # tokens joined with single spaces. `aliases` maps a key to the surface
    # it stands for (the lexicographically smallest of those with its
    # tokens) only where that is not the key itself; only surfaces with
    # ASCII punctuation can differ from their key. `lengths` maps a first
    # token to the distinct surface lengths in tokens, longest first.
    aliases: dict[str, str]
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
    # Key -> smallest surface, for the keys of punctuated surfaces.
    smallest: dict[str, str] = {}
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
        # Without ASCII punctuation the tokens are exactly the words, and
        # the key is the surface itself.
        if find_punctuation(surface):
            toks = token_texts(surface)
            key = " ".join(toks)
            held = smallest.get(key)
            if held is None or surface < held:
                smallest[key] = surface
            by_first.setdefault(toks[0], set()).add(len(toks))
        else:
            by_first.setdefault(words[0], set()).add(len(words))

    aliases = {key: surface for key, surface in smallest.items() if surface != key}
    lengths = {
        first: tuple(sorted(counts, reverse=True)) for first, counts in by_first.items()
    }
    return NerDictionary(
        surface_class=surface_class, aliases=aliases, lengths=lengths
    )


def _index_key(raw: bytes, ontology: Ontology) -> bytes:
    key = hashlib.sha256(_INDEX_FORMAT)
    # The ontology's class names are all that load_dictionary reads of it.
    key.update(json.dumps(sorted(ontology.classes)).encode())
    key.update(raw)
    return key.digest()


def _read_index(index_path: str, key: bytes):
    """The (surface_class, aliases, lengths) stored under `key`, or None."""
    try:
        with open(index_path, "rb") as fh:
            view = memoryview(fh.read())
    except OSError:
        return None
    body = view[2 * _DIGEST_SIZE :]
    if (
        view[:_DIGEST_SIZE] != key
        or view[_DIGEST_SIZE : 2 * _DIGEST_SIZE] != hashlib.sha256(body).digest()
    ):
        return None
    try:
        index = marshal.loads(body)
    except (EOFError, ValueError, TypeError):
        return None
    if type(index) is tuple and len(index) == 3 and all(type(p) is dict for p in index):
        return index
    return None


def load_dictionary_file(path: str, ontology: Ontology) -> NerDictionary:
    """load_dictionary of the file at `path`, through its index sidecar.

    The sidecar (`path` + INDEX_SUFFIX) is keyed by the dictionary's bytes
    and the ontology's class names. When it is missing, stale or damaged,
    the dictionary is parsed and the sidecar rewritten; a sidecar that
    cannot be written costs only the parse.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    key = _index_key(raw, ontology)
    index_path = path + INDEX_SUFFIX
    index = _read_index(index_path, key)
    if index is not None:
        return NerDictionary(*index)
    try:
        # Decoded bytes split into the same lines as a text-mode read:
        # splitlines breaks at \r\n and \r as well as \n.
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableFileError(f"{path}: not valid UTF-8: {exc.reason}") from exc
    dictionary = load_dictionary(text, ontology)
    body = marshal.dumps(
        (dictionary.surface_class, dictionary.aliases, dictionary.lengths)
    )
    try:
        write_atomic(index_path, key, hashlib.sha256(body).digest(), body)
    except OSError as exc:
        log.debug("dictionary index %s not written: %s", index_path, exc)
    return dictionary


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
            toks = tuple(kernels.token_texts(piece))
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
    fits: dict[str, frozenset[str]],
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
            if cursor != pos and item.cls not in fits[cls]:
                return None
            bound[item.role] = hit
            cursor += count
    return bound


class _Answers(dict):
    """A dict that asks `answer(key)` for a key it does not hold yet."""

    def __init__(self, answer) -> None:
        super().__init__()
        self._answer = answer

    def __missing__(self, key):
        value = self[key] = self._answer(key)
        return value


class OntologyTable:
    """The ontology's answers to the questions extraction asks, for one
    rule set; build_baseline makes one per call and shares it across the
    batch's articles, so each question is asked once per batch.

    `fits[cls]` is the set of the rules' slot classes that `cls` equals or
    descends from, and `permissible[s_cls, predicate, o_cls]` is
    is_permissible of that triple. Both tables fill on first use.
    """

    def __init__(self, ontology: Ontology, rules: list[PatternRule]) -> None:
        slot_classes = {
            item.cls
            for rule in rules
            for item in rule.items
            if isinstance(item, SlotItem)
        }
        self.fits: dict[str, frozenset[str]] = _Answers(
            lambda cls: frozenset(
                slot_cls
                for slot_cls in slot_classes
                if ontology.is_subclass(cls, slot_cls)
            )
        )
        self.permissible: dict[tuple[str, str, str], bool] = _Answers(
            lambda key: is_permissible(ontology, *key)
        )


def extract_article(
    article: ArticleDoc,
    dictionary: NerDictionary,
    rules: list[PatternRule],
    table: OntologyTable,
) -> tuple[list[EntityAssertion], list[TripleAssertion], int]:
    """Extract one article's assertion fragment; `table` is an
    OntologyTable of the same `rules`.

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
            token_texts, surface_class, dictionary.aliases, dictionary.lengths
        )
    }
    article_id = article.id
    entities = [
        EntityAssertion(surface, cls, article_id)
        for _, surface, cls in match_at.values()
    ]

    # A rule can only match where its first item does: at a token equal to
    # a literal's first token, or at a dictionary match whose class the
    # slot admits. A slot-first rule whose second item is a literal also
    # needs that literal's first token right after the match. Trying those
    # positions in ascending order, rule by rule, keeps the output order of
    # trying every rule at every token. The positions are bucketed in one
    # pass over the tokens for the literals and one pass over the matches
    # for the slot classes.
    folded = [t.casefold() for t in token_texts]
    sentence_end = _sentence_ends(folded)
    literal_starts: dict[str, list[int]] = {}
    # Slot class -> token after the match (None: any) -> start positions.
    slot_starts: dict[str, dict[str | None, list[int]]] = {}
    # Per rule, the start list it is tried at.
    rule_starts: list[list[int]] = []
    for rule in rules:
        first, second = rule.items[0], rule.items[1]
        if isinstance(first, LiteralItem):
            starts = literal_starts.setdefault(first.tokens[0], [])
        else:
            after = second.tokens[0] if isinstance(second, LiteralItem) else None
            starts = slot_starts.setdefault(first.cls, {}).setdefault(after, [])
        rule_starts.append(starts)
    if literal_starts:
        for pos, tok in enumerate(folded):
            starts = literal_starts.get(tok)
            if starts is not None:
                starts.append(pos)
    fits = table.fits
    if slot_starts:
        # Match class -> the buckets of the slot classes it fits.
        buckets: dict[str, list[dict[str | None, list[int]]]] = {}
        n = len(folded)
        for pos, (count, _, cls) in match_at.items():
            fitting = buckets.get(cls)
            if fitting is None:
                cls_fits = fits[cls]
                fitting = buckets[cls] = [
                    by_after
                    for slot_cls, by_after in slot_starts.items()
                    if slot_cls in cls_fits
                ]
            after = folded[pos + count] if pos + count < n else None
            for by_after in fitting:
                starts = by_after.get(None)
                if starts is not None:
                    starts.append(pos)
                if after is not None:
                    starts = by_after.get(after)
                    if starts is not None:
                        starts.append(pos)

    permissible = table.permissible
    triples: list[TripleAssertion] = []
    rejected = 0
    for rule, starts in zip(rules, rule_starts):
        for pos in starts:
            bound = _match_rule_at(
                rule, pos, sentence_end[pos], folded, match_at, fits
            )
            if bound is None:
                continue
            (_, subj, subj_cls), (_, obj, obj_cls) = bound["subject"], bound["object"]
            if not permissible[subj_cls, rule.predicate, obj_cls]:
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

    The articles share one OntologyTable, so each ontology question is
    asked once per call. The result is independent of article order.
    """
    ids = [a.id for a in articles]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ExtractError(f"duplicate article ids in batch: {', '.join(dupes)}")

    entity_records: list[EntityAssertion] = []
    triple_records: list[TripleAssertion] = []
    rejected = 0
    table = OntologyTable(ontology, rules)
    for article in articles:
        ents, trips, rej = extract_article(article, dictionary, rules, table)
        entity_records.extend(ents)
        triple_records.extend(trips)
        rejected += rej

    graph, diags = build_graph(
        entity_records, triple_records, batch_id=batch_id, timestamp=timestamp
    )
    if rejected:
        diags.notes.append(f"{rejected} rule triples failed permissibility")
    return graph, diags
