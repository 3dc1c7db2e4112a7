"""Scanner kernels: the line splitter of the text loaders, the tokenizer and
the greedy dictionary scan.

A token is one ASCII punctuation character or a maximal run of characters
that are neither whitespace (`str.isspace`) nor ASCII punctuation;
whitespace separates tokens and is never emitted.

`token_texts` gets these tokens from C-level string passes: each ASCII
punctuation mark found in the text is padded with spaces by `str.replace`,
so that it becomes a token of its own, and `str.split()` then breaks at the
same whitespace as `str.isspace`. Measured against one compiled `re`
pattern's `findall` (Python 3.11, 2-vCPU x86-64 VM), this is about four
times as fast on a batch of long articles (0.5 against 2 ms for 57k
characters) and about twice as slow on a short punctuated string (1.5
against 0.7 us), which only a cold dictionary parse and the rule literals
pay.
"""

import re
import string

# The first ASCII punctuation character of a text, or None. A text where it
# finds none tokenizes to exactly its str.split() words.
find_punctuation = re.compile(f"[{re.escape(string.punctuation)}]").search

_PADDED = tuple((mark, f" {mark} ") for mark in string.punctuation)

# Named on the benchmark's env line; there is no other implementation.
implementation = "pure"


def split_lines(text: str) -> list[str]:
    """The lines of `text`, broken only at \\n, \\r\\n and \\r, as a text-mode
    read breaks them; U+2028, U+0085, form feeds and the other breaks of
    `str.splitlines` stay inside a line. Like `str.splitlines`, a final
    line break ends the last line instead of starting an empty one. Its
    C-level passes take about 80% of the time of `splitlines` and a sixth
    of a `re` split's on a 37k-character record file (Python 3.11, 2-vCPU
    x86-64 VM)."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def token_texts(text: str) -> list[str]:
    """The tokens of `text`, left to right."""
    for mark, padded in _PADDED:
        if mark in text:
            text = text.replace(mark, padded)
    return text.split()


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
