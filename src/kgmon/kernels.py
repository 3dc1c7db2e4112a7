"""Scanner kernels: the tokenizer and the greedy dictionary scan.

A token is one ASCII punctuation character or a maximal run of characters
that are neither whitespace (`str.isspace`) nor ASCII punctuation;
whitespace separates tokens and is never emitted.
"""

import re
import string

_PUNCT = re.escape(string.punctuation)
TOKEN_RE = re.compile(f"[{_PUNCT}]|[^\\s{_PUNCT}]+")

# Named on the benchmark's env line; there is no other implementation.
implementation = "pure"


def tokenize(text: str) -> list[tuple[str, int]]:
    """Split text into (token, char_offset) pairs, left to right."""
    return [(m.group(), m.start()) for m in TOKEN_RE.finditer(text)]


def find_matches(
    token_texts: list[str],
    surfaces: dict[tuple[str, ...], str],
    lengths: dict[str, tuple[int, ...]],
) -> list[tuple[int, int, str]]:
    """Greedy longest-match scan over a token sequence.

    `surfaces` maps a surface's token tuple to the surface; `lengths` maps
    a first token to the distinct token counts of the surfaces it starts,
    longest first. Comparison is exact (case-sensitive). Matches never
    overlap: after a hit the scan resumes past the matched span.
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
            surface = surfaces.get(tuple(token_texts[i:i + k]))
            if surface is not None:
                matches.append((i, k, surface))
                resume = i + k
                break
    return matches
