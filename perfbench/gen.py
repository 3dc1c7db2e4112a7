"""Seeded input generator for the kgmon pipeline benchmark.

Everything kgmon reads in a benchmark run comes from here: the ontology,
the NER dictionary, the extraction rules, one fresh batch per evaluate
cycle, the candidate record files and the run configs. The generator also
knows what it planted, so it writes the expected baseline graph as a
canonical record file itself; the benchmark compares kgmon's baseline
against that file, never against kgmon's own earlier output.

The text is built so that the planted truth is exact:

- filler words, dictionary surface tokens and rule literal words are three
  disjoint vocabularies (compared casefolded), so a dictionary hit or a
  rule match can only happen where the generator put one;
- two planted surfaces are never adjacent, so greedy longest match always
  stops at the planted surface;
- each rule has its own literal word sequence, so one planted rule
  instance is matched by exactly one rule;
- the text holds no ``#`` and no digit, so an injected ``##inj-...``
  surface can never be traced to the batch.
"""

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Class forest: name -> parent. Depth reaches 3 so CI sees deep typing.
CLASSES = {
    "Person": None,
    "Scientist": "Person",
    "Physicist": "Scientist",
    "Musician": "Person",
    "Organization": None,
    "Company": "Organization",
    "Startup": "Company",
    "University": "Organization",
    "Location": None,
    "City": "Location",
    "Capital": "City",
    "Country": "Location",
    "Event": None,
    "Festival": "Event",
    "Product": None,
    "Device": "Product",
    "Work": None,
    "Book": "Work",
}

PROPERTIES = {
    "worksFor": ("Person", "Organization"),
    "locatedIn": ("Organization", "Location"),
    "bornIn": ("Person", "Location"),
    "foundedBy": ("Organization", "Person"),
    "produces": ("Company", "Product"),
    "wrote": ("Person", "Work"),
    "hostedIn": ("Event", "Location"),
    "attended": ("Person", "Event"),
    "partOf": ("Location", "Location"),
    "studiedAt": ("Person", "University"),
    "invented": ("Scientist", "Device"),
    "sponsors": ("Company", "Event"),
}

NER_MAP = {"PER": "Person", "ORG": "Organization", "LOC": "Location"}

_FILLER_SYLLABLES = (
    "ba be bo da de do fa fe fo ga ge go ha he ho la le lo ma me mo "
    "na ne no pa pe po ra re ro sa se so ta te to va ve vo"
).split()
_SURFACE_SYLLABLES = (
    "kar ken kol mir mun nav nor pel pir rad ren sol sun tal tor val "
    "ven vor zan zel zor bran dor gal"
).split()
_RULE_VERBS = (
    "works lives studies performs invests trades serves plays "
    "travels writes builds speaks"
).split()
_RULE_PREPS = "for in with at near under".split()

# Injected entities that fail the schema stage carry this class.
UNKNOWN_CLASS = "Unobtainium"

# Drift candidates carry injected entities on every third cycle and equal
# the planted baseline on the others.
INJECT_EVERY = 3


@dataclass(frozen=True)
class Shape:
    """Size parameters of one workload's inputs."""

    docs: int  # articles per batch
    sentences: int  # sentences per article
    words: int  # filler words per sentence
    surfaces: int  # planted dictionary surfaces per sentence
    instances: int  # planted rule instances per sentence
    dict_size: int  # dictionary surfaces
    pool: int  # distinct surfaces a batch draws from (0: whole dictionary)
    rules: int
    models: tuple  # candidate models, evaluated in this order
    hal: bool  # weight Hal in the anomaly score
    inject_untraceable: int  # injected into drift candidates, every INJECT_EVERY cycles
    inject_schema: int
    inject_rule_pairs: int
    subset: int  # entities in a "subset" candidate
    subset_untraceable: int
    prefill: int  # history rows `kgmon simulate` writes before the cycles


@dataclass
class Planted:
    """What the generator put into one batch."""

    entities: dict = field(default_factory=dict)  # surface -> (class, article)
    triples: dict = field(default_factory=dict)  # (s, p, o) -> article
    filler_used: list = field(default_factory=list)  # in order of first use
    chars: int = 0


def _words(rng: random.Random, syllables, count, lo, hi, forbidden, cap=False):
    out: list[str] = []
    seen = set(forbidden)
    while len(out) < count:
        word = "".join(rng.choice(syllables) for _ in range(rng.randint(lo, hi)))
        if cap:
            word = word.capitalize()
        if word.casefold() in seen:
            continue
        seen.add(word.casefold())
        out.append(word)
    return out


def _descendants_or_self(cls: str) -> list[str]:
    out = []
    for name in CLASSES:
        cur = name
        while cur is not None:
            if cur == cls:
                out.append(name)
                break
            cur = CLASSES[cur]
    return sorted(out)


def _is_subclass(name: str, ancestor: str) -> bool:
    cur = name
    while cur is not None:
        if cur == ancestor:
            return True
        cur = CLASSES[cur]
    return False


def _of_class(surfaces) -> dict[str, list[str]]:
    """Surfaces whose class equals or descends from each class."""
    out: dict[str, list[str]] = {cls: [] for cls in CLASSES}
    for surface, cls in surfaces:
        for ancestor in CLASSES:
            if _is_subclass(cls, ancestor):
                out[ancestor].append(surface)
    return out


class Corpus:
    """Shared inputs of one workload: the vocabulary, dictionary and rules.

    Batches are drawn per cycle with `batch(cycle)`; the same seed, shape
    and cycle number always give the same batch.
    """

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.seed = seed
        rng = random.Random(seed)
        literal_words = {w.casefold() for w in _RULE_VERBS + _RULE_PREPS}
        self.filler = _words(rng, _FILLER_SYLLABLES, 600, 2, 3, literal_words)
        surface_tokens = _words(
            rng,
            _SURFACE_SYLLABLES,
            900,
            1,
            3,
            literal_words | {w.casefold() for w in self.filler},
            cap=True,
        )

        classes = sorted(CLASSES)
        self.surfaces: list[tuple[str, str]] = []
        seen: set[str] = set()
        while len(self.surfaces) < shape.dict_size:
            n_tok = rng.choice((1, 2, 2, 2, 3))
            surface = " ".join(rng.choice(surface_tokens) for _ in range(n_tok))
            if surface in seen:
                continue
            seen.add(surface)
            self.surfaces.append((surface, classes[len(self.surfaces) % len(classes)]))
        self.filler_set = set(self.filler)
        self.dict_of_class = _of_class(self.surfaces)

        pairs = [(v, p) for v in _RULE_VERBS for p in _RULE_PREPS]
        rng.shuffle(pairs)
        predicates = sorted(PROPERTIES)
        self.rules: list[tuple[str, tuple[str, str], str, str, str, bool]] = []
        for i in range(shape.rules):
            pred = predicates[i % len(predicates)]
            domain, range_ = PROPERTIES[pred]
            subj_cls = rng.choice(_descendants_or_self(domain))
            obj_cls = rng.choice(_descendants_or_self(range_))
            object_first = rng.random() < 0.25
            self.rules.append(
                (f"r{i:02d}", pairs[i], pred, subj_cls, obj_cls, object_first)
            )

    # -- shared files -----------------------------------------------------

    def ontology_text(self) -> str:
        lines = ["# generated benchmark ontology"]
        for name, parent in CLASSES.items():
            lines.append(f"CLASS {name}" + (f" SUBCLASS_OF {parent}" if parent else ""))
        for name, (domain, range_) in PROPERTIES.items():
            lines.append(f"PROPERTY {name} DOMAIN {domain} RANGE {range_}")
        for tag, cls in NER_MAP.items():
            lines.append(f"NERMAP {tag} {cls}")
        return "\n".join(lines) + "\n"

    def dictionary_text(self) -> str:
        return "".join(f"{s}\t{c}\n" for s, c in self.surfaces)

    def rules_text(self) -> str:
        out = []
        for rule_id, (verb, prep), pred, subj_cls, obj_cls, object_first in self.rules:
            first, last = (
                (f"{{object:{obj_cls}}}", f"{{subject:{subj_cls}}}")
                if object_first
                else (f"{{subject:{subj_cls}}}", f"{{object:{obj_cls}}}")
            )
            out.append(f"{rule_id}\t{first} {verb} {prep} {last}\t{pred}\n")
        return "".join(out)

    # -- per-cycle batch --------------------------------------------------

    def batch(self, cycle: int) -> tuple[str, list[tuple[str, str]], Planted]:
        """Batch id, (article id, text) pairs and the planted truth."""
        shape = self.shape
        rng = random.Random(self.seed * 1_000_003 + cycle)
        batch_id = f"b{cycle:05d}"
        pool = rng.sample(self.surfaces, shape.pool) if shape.pool else self.surfaces
        # Rule instances draw from the pool too, so a batch usually holds
        # exactly `pool` distinct entities.
        of_class = _of_class(pool)
        # Every pool surface is planted once before any repeats, so the
        # baseline size is the same in every batch.
        unplanted = list(pool)
        rng.shuffle(unplanted)
        surface_class = dict(self.surfaces)
        planted = Planted()
        filler_seen: set[str] = set()
        articles = []

        def take_surface() -> str:
            if unplanted:
                return unplanted.pop()[0]
            return rng.choice(pool)[0]

        def take_of_class(cls: str) -> str:
            return rng.choice(of_class[cls] or self.dict_of_class[cls])

        for a in range(shape.docs):
            article_id = f"{batch_id}-a{a:03d}"

            def note_entity(surface: str) -> None:
                cls = surface_class[surface]
                prev = planted.entities.get(surface)
                if prev is None or article_id < prev[1]:
                    planted.entities[surface] = (cls, article_id)

            sentences = []
            for _ in range(shape.sentences):
                segments: list[list[str]] = [
                    [rng.choice(self.filler)] for _ in range(shape.words)
                ]
                for _ in range(shape.surfaces):
                    surface = take_surface()
                    note_entity(surface)
                    segments.append([surface])
                for _ in range(shape.instances):
                    _rid, (verb, prep), pred, subj_cls, obj_cls, object_first = rng.choice(
                        self.rules
                    )
                    subj = take_of_class(subj_cls)
                    obj = take_of_class(obj_cls)
                    while obj == subj:
                        obj = take_of_class(obj_cls)
                    note_entity(subj)
                    note_entity(obj)
                    key = (subj, pred, obj)
                    if key not in planted.triples or article_id < planted.triples[key]:
                        planted.triples[key] = article_id
                    first, last = (obj, subj) if object_first else (subj, obj)
                    segments.append([first, verb, prep, last])
                rng.shuffle(segments)
                # A filler word after every segment that ends in a surface
                # keeps planted surfaces apart.
                words: list[str] = []
                for seg in segments:
                    words.extend(seg)
                    if seg[-1][0].isupper():
                        words.append(rng.choice(self.filler))
                for w in words:
                    if w in self.filler_set and w not in filler_seen:
                        filler_seen.add(w)
                        planted.filler_used.append(w)
                sentences.append(" ".join(words) + ".")
            text = " ".join(sentences)
            planted.chars += len(text)
            articles.append((article_id, text))
        return batch_id, articles, planted


# -- record files -----------------------------------------------------------


def serialize(entities: dict, triples: dict) -> str:
    """Canonical record text: sorted E lines, then sorted T lines."""
    e_lines = sorted(f"E\t{e}\t{c}\t{p}" for e, (c, p) in entities.items())
    t_lines = sorted(f"T\t{s}\t{p}\t{o}\t{prov}" for (s, p, o), prov in triples.items())
    return "".join(line + "\n" for line in e_lines + t_lines)


def batch_text(articles: list[tuple[str, str]], published_at: int) -> str:
    return "".join(f"{aid}\t{published_at}\t{text}\n" for aid, text in articles)


def drift_candidate(
    shape: Shape, planted: Planted, cycle: int, rng: random.Random
) -> tuple[dict, dict, int]:
    """Baseline plus injected entities that fail each validation stage.

    Returns (entities, triples, expected hallucinated count).
    """
    entities = dict(planted.entities)
    triples = dict(planted.triples)
    failed = 0
    for i in range(shape.inject_untraceable):
        entities[f"##inj-{cycle}-{i:04d}"] = (rng.choice(sorted(CLASSES)), "inj")
        failed += 1
    # Filler words occur in the batch text, so these pass source tracing.
    words = iter(planted.filler_used)
    for _ in range(shape.inject_schema):
        entities[next(words)] = (UNKNOWN_CLASS, "inj")
        failed += 1
    for _ in range(shape.inject_rule_pairs):
        # (Device, bornIn, City) breaks bornIn's Person domain; both
        # endpoints are charged to rule conformance.
        subj, obj = next(words), next(words)
        entities[subj] = ("Device", "inj")
        entities[obj] = ("City", "inj")
        triples[(subj, "bornIn", obj)] = "inj"
        failed += 2
    return entities, triples, failed


def subset_candidate(
    shape: Shape, planted: Planted, cycle: int, rng: random.Random
) -> tuple[dict, dict, int]:
    """A small candidate: some baseline entities plus untraceable ones."""
    names = rng.sample(sorted(planted.entities), shape.subset - shape.subset_untraceable)
    entities = {n: planted.entities[n] for n in names}
    triples = {
        t: prov for t, prov in planted.triples.items() if t[0] in entities and t[2] in entities
    }
    for i in range(shape.subset_untraceable):
        entities[f"##sub-{cycle}-{i:03d}"] = (rng.choice(sorted(CLASSES)), "inj")
    return entities, triples, shape.subset_untraceable


@dataclass(frozen=True)
class CycleFiles:
    batch_id: str
    batch: str
    expected_baseline: str  # path of the planted baseline record file
    candidates: tuple  # (model, path, expected hall_total, expected hall_failed)
    docs: int
    chars: int
    entities: int


def write_cycle(corpus: Corpus, cycle: int, workdir: Path) -> CycleFiles:
    """Write one cycle's batch, planted baseline and candidate files."""
    shape = corpus.shape
    batch_id, articles, planted = corpus.batch(cycle)
    cdir = workdir / "batches"
    cdir.mkdir(parents=True, exist_ok=True)
    batch_path = cdir / f"{batch_id}.tsv"
    batch_path.write_text(batch_text(articles, 1_700_000_000 + cycle), encoding="utf-8")
    base_path = cdir / f"{batch_id}.expected.rec"
    base_text = serialize(planted.entities, planted.triples)
    base_path.write_text(base_text, encoding="utf-8")

    rng = random.Random(corpus.seed * 7_919 + cycle)
    candidates = []
    for model in shape.models:
        kind = model.rstrip("0123456789")
        if kind == "drift" and cycle % INJECT_EVERY == INJECT_EVERY - 1:
            ents, trips, failed = drift_candidate(shape, planted, cycle, rng)
            path = cdir / f"{batch_id}.{model}.rec"
            path.write_text(serialize(ents, trips), encoding="utf-8")
            candidates.append((model, str(path), len(ents), failed))
        elif kind == "subset":
            ents, trips, failed = subset_candidate(shape, planted, cycle, rng)
            path = cdir / f"{batch_id}.{model}.rec"
            path.write_text(serialize(ents, trips), encoding="utf-8")
            candidates.append((model, str(path), len(ents), failed))
        else:  # "clean", or a drift model on an unscheduled cycle
            candidates.append((model, str(base_path), len(planted.entities), 0))
    return CycleFiles(
        batch_id=batch_id,
        batch=str(batch_path),
        expected_baseline=str(base_path),
        candidates=tuple(candidates),
        docs=len(articles),
        chars=planted.chars,
        entities=len(planted.entities),
    )


SIM_STEPS = 200  # rows of each `kgmon simulate` the rate metrics time
_UNWEIGHTED = {"icr": 1.0, "ipr": 1.0, "ci": 1.0}


def _config(noise_seed: int, **fields) -> str:
    payload = {
        "ontology": "ontology.txt",
        "dictionary": "dictionary.tsv",
        "rules": "rules.tsv",
        "lambda": 2.0,
        "window": 30,
        "warmup_min": 5,
        "noise_sigma": 0.01,
        "noise_seed": noise_seed,
        **fields,
    }
    return json.dumps(payload, indent=1)


def _schedule(steps: int, seed: int) -> str:
    # Perturbations every 500 steps from step 100; each drops four classes,
    # far above the noise, so every asserted flag must be raised.
    lines = []
    for step in range(100, steps, 500):
        lines.append(f"{step}\tdrop-classes\t4\t{seed + step}")
        lines.append(f"ASSERT_FLAG_AT {step}")
    return "".join(line + "\n" for line in lines)


def write_shared(corpus: Corpus, workdir: Path) -> dict:
    """Write the ontology, dictionary, rules and the evaluate run config.

    Returns the paths by name: `config` drives evaluate and the prefill
    simulate that grows its `history` by `prefill_schedule`.
    """
    shape = corpus.shape
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "ontology.txt").write_text(corpus.ontology_text(), encoding="utf-8")
    (workdir / "dictionary.tsv").write_text(corpus.dictionary_text(), encoding="utf-8")
    (workdir / "rules.tsv").write_text(corpus.rules_text(), encoding="utf-8")
    weights = dict(_UNWEIGHTED, hal=1.0) if shape.hal else _UNWEIGHTED
    config = _config(
        corpus.seed, history="history.jsonl", models=list(shape.models), weights=weights
    )
    (workdir / "config.json").write_text(config, encoding="utf-8")
    schedule = _schedule(shape.prefill, corpus.seed)
    (workdir / "prefill_schedule.tsv").write_text(schedule, encoding="utf-8")
    return {
        "config": str(workdir / "config.json"),
        "history": str(workdir / "history.jsonl"),
        "prefill_schedule": str(workdir / "prefill_schedule.tsv"),
    }


def write_simulation(corpus: Corpus, workdir: Path, rep: int) -> dict:
    """Config and schedule of the rep-th simulate whose rows/s is measured.

    Each rep has its own noise and perturbation seeds and its own history,
    so a run's median covers many score sequences, not one. The config
    carries no Hal weight: simulate exits 1 on a config that weights hal.
    """
    seed = corpus.seed * 1000 + rep
    history = f"sim-{rep:03d}.jsonl"
    config = _config(seed, history=history, models=["sim"], weights=_UNWEIGHTED)
    (workdir / "sim_config.json").write_text(config, encoding="utf-8")
    (workdir / "sim_schedule.tsv").write_text(_schedule(SIM_STEPS, seed), encoding="utf-8")
    return {
        "config": str(workdir / "sim_config.json"),
        "history": str(workdir / history),
        "schedule": str(workdir / "sim_schedule.tsv"),
    }
