"""Record parse_golden.json: seeded random expressions and what the parser
makes of each, its render_text output or its ParseError text.

    PYTHONPATH=src python tests/record_parse_golden.py > tests/parse_golden.json

About two in five expressions get one to three random character edits: a
character that no token starts with, a deleted or a doubled character, a
newline or an ASCII token character.  Candidates with an exponent above 6,
or whose output is longer than 400 characters, are drawn again, so each
entry stays small.  test_cli.py::test_parse_matches_golden replays the file.
"""

import json
import random
import re
import sys

from kravchuk_identities.cli import ParseError, parse_expr
from kravchuk_identities.poly import render_text

SEEDS = (1, 2, 3)
PER_SEED = 400
_SPACES = ["", "", "", " ", " ", "  ", "\t", "\n", "\u00a0"]
_BAD = "$?y!.,;=#&é²١"
_TOKEN_CHARS = "0123456789xa+-*^/() "
_EXPONENT = re.compile(r"\^\s*([0-9]+)")


def _expression(rng: random.Random) -> str:
    def space():
        return rng.choice(_SPACES)

    def base(depth):
        kind = rng.randrange(10 if depth else 8)
        if kind < 3:
            p = str(rng.randrange(21))
            if rng.random() < 0.6:
                return p
            q = rng.randrange(6) if rng.random() < 0.1 else rng.randint(1, 5)
            return f"{p}{space()}/{space()}{q}"
        if kind < 8:
            return rng.choice(["x", "a"] + [f"x{i}" for i in range(12)])
        if kind == 8:
            return f"({space()}{expr(depth - 1)}{space()})"
        return "-" + space() + factor(depth - 1)

    def factor(depth):
        text = base(depth)
        return text if rng.random() < 0.6 else f"{text}{space()}^{space()}{rng.randrange(5)}"

    def term(depth):
        return f"{space()}*{space()}".join(factor(depth) for _ in range(rng.randint(1, 3)))

    def expr(depth):
        text = term(depth)
        for _ in range(rng.randrange(4)):
            text += f"{space()}{rng.choice('+-')}{space()}{term(depth)}"
        return text

    return space() + expr(2) + space()


def _edit(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        kind = rng.randrange(5)
        if kind == 0:
            text = text[:i] + rng.choice(_BAD) + text[i:]
        elif kind == 1:
            text = text[:i] + text[i + 1:]
        elif kind == 2:
            text = text[:i] + text[i:i + 1] + text[i:]
        elif kind == 3:
            text = text[:i] + "\n" + text[i:]
        else:
            text = text[:i] + rng.choice(_TOKEN_CHARS) + text[i:]
    return text


def _outcome(text: str):
    """{"text": ...} or {"error": ...}, or None for a candidate to draw again."""
    if any(int(e) > 6 for e in _EXPONENT.findall(text)):
        return None
    try:
        out = {"text": render_text(parse_expr(text))}
    except ParseError as exc:
        return {"error": str(exc)}
    return out if len(out["text"]) <= 400 else None


def main():
    entries = []
    for seed in SEEDS:
        rng = random.Random(seed)
        count = 0
        while count < PER_SEED:
            text = _expression(rng)
            if rng.random() < 0.4:
                text = _edit(rng, text)
            outcome = _outcome(text)
            if outcome is not None:
                entries.append({"expr": text, **outcome})
                count += 1
    json.dump(entries, sys.stdout, indent=0, ensure_ascii=False)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
