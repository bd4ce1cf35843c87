"""Frozen digests of the built-in systems' enumeration prefixes.

The reference enumerator scans codes 0, 1, 2, ... in order, decodes each
with `decode_quadruple` and keeps the quadruples the system's `decide`
accepts.  That is the enumeration order the program defines; the digest of
each prefix the benchmark requests is frozen in digests.json, so any change
to the order, or to the members, fails the benchmark's prefix checks.

Regenerate (only when an order change is intended):

    python3 perfbench/digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List

DIGEST_FILE = Path(__file__).with_name("digests.json")

# Prefix lengths the enumerate-audit workload requests, per built-in system.
PREFIX_COUNTS: Dict[str, tuple] = {
    "division": (5, 10, 20, 50, 100, 200, 300, 1000, 2000),
    "maximal-division": (20, 50, 200),
    "cosine": (1000, 2000),
    "square": (5, 10, 20, 50, 200),
}


def canonical(quads: Iterable) -> str:
    """One line per quadruple: coordinates of a, then m, b, n."""
    return "".join(
        ",".join(str(c) for c in q.a) + f";{q.m};{q.b};{q.n}\n" for q in quads
    )


def digest(quads: Iterable) -> str:
    return hashlib.sha256(canonical(quads).encode()).hexdigest()


def reference_prefix(ax, system, count: int) -> List:
    """First `count` members by a plain scan of codes from 0."""
    members: List = []
    k = 0
    while len(members) < count:
        q = ax.core.decode_quadruple(k, system.dim_in)
        if system.decide(q):
            members.append(q)
        k += 1
    return members


def freeze(ax) -> Dict[str, Dict[str, str]]:
    ctors = {
        "division": ax.systems.division_system,
        "maximal-division": ax.systems.maximal_division_system,
        "cosine": ax.systems.cosine_system,
        "square": ax.systems.squaring_system,
    }
    frozen = {}
    for name, counts in PREFIX_COUNTS.items():
        members = reference_prefix(ax, ctors[name](), max(counts))
        frozen[name] = {str(c): digest(members[:c]) for c in counts}
    return frozen


def load() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGEST_FILE.read_text())


def matches(frozen: Dict[str, Dict[str, str]], system: str, count: int, quads: List) -> bool:
    """True iff `quads` is exactly the frozen prefix of length `count`."""
    want = frozen.get(system, {}).get(str(count))
    return want is not None and want == digest(quads)


if __name__ == "__main__":
    from run import import_approxsys

    DIGEST_FILE.write_text(json.dumps(freeze(import_approxsys()), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_FILE}")
