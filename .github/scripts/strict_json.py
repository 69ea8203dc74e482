"""Check that JSON files parse under strict JSON: no NaN, Infinity or -Infinity.

Usage: python strict_json.py FILE...

Python's ``json`` accepts those three tokens, which no strict parser does.
Exits nonzero naming the first file and bad token found.
"""

import json
import sys


def refuse(token):
    raise ValueError(f"bad JSON token {token}")


for path in sys.argv[1:]:
    with open(path) as fh:
        try:
            json.load(fh, parse_constant=refuse)
        except ValueError as exc:
            raise SystemExit(f"{path}: {exc}")
