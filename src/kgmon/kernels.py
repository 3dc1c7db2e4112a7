"""Scanner kernels: the tokenizer and the greedy dictionary scan.

A token is one ASCII punctuation character or a maximal run of characters
that are neither whitespace (`str.isspace`) nor ASCII punctuation;
whitespace separates tokens and is never emitted.
"""

import re
import string

_PUNCT = re.escape(string.punctuation)
TOKEN_RE = re.compile(f"[{_PUNCT}]|[^\\s{_PUNCT}]+")
# The first ASCII punctuation character of a text, or None. A text where it
# finds none tokenizes to exactly its str.split() words.
find_punctuation = re.compile(f"[{_PUNCT}]").search

# Named on the benchmark's env line; there is no other implementation.
implementation = "pure"


def token_texts(text: str) -> list[str]:
    """The tokens of `text`, left to right."""
    return TOKEN_RE.findall(text)


def find_matches(
    token_texts: list[str],
    surface_class: dict[str, str],
    aliases: dict[str, str],
    lengths: dict[str, tuple[int, ...]],
) -> list[tuple[int, int, str]]:
    """Greedy longest-match scan over a token sequence.

    A candidate span is looked up by its key, its tokens joined with single
    spaces; tokens hold no whitespace, so two spans share a key only if they
    share their tokens. `aliases` maps a key to the surface it stands for
    where that differs from the key (the lexicographically smallest surface
    with those tokens); any other key stands for itself when it is in
    `surface_class`. `lengths` maps a first token to the distinct token
    counts of the surfaces it starts, longest first. Comparison is exact
    (case-sensitive). Matches never overlap: after a hit the scan resumes
    past the matched span.
    Returns (token_start, token_count, surface) per match, left to right.
    """
    matches: list[tuple[int, int, str]] = []
    n = len(token_texts)
    resume = 0
    for i in [i for i, t in enumerate(token_texts) if t in lengths]:
        if i < resume:
            continue
        for k in lengths[token_texts[i]]:
            if i + k > n:
                continue
            key = " ".join(token_texts[i:i + k])
            surface = aliases.get(key, key)
            if surface in surface_class:
                matches.append((i, k, surface))
                resume = i + k
                break
    return matches
