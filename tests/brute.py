"""Independent brute-force semantics used to derive expected test values.

Implements the two-phase broadcast from first principles with plain tuples
and exhaustive enumeration — no imports from the package under test — so the
numbers frozen into the tests come from a second, unrelated route.  It also
keeps the sort-based partition grouping, the reference for the library's
first-occurrence table.
"""

from itertools import product

import numpy as np

AGENT_COUNT = 3


def contrib_table(sr, msg, slots=3):
    """Contribution matrix (agent x step) and rr under the validated guard:
    transmit in your slot unless your own reservation round came back 0."""
    steps = 2 * slots
    C = [[0] * steps for _ in range(AGENT_COUNT)]
    rr = []
    for s in range(1, slots + 1):
        for i in range(AGENT_COUNT):
            C[i][s - 1] = 1 if sr[i] == s else 0
        rr.append(C[0][s - 1] ^ C[1][s - 1] ^ C[2][s - 1])
    for s in range(1, slots + 1):
        for i in range(AGENT_COUNT):
            kc = not (sr[i] == s and rr[s - 1] == 0)
            C[i][slots + s - 1] = msg[i] if (sr[i] == s and kc) else 0
        rr.append(C[0][slots + s - 1] ^ C[1][slots + s - 1] ^ C[2][slots + s - 1])
    return C, rr


def enumerate_vs(slots=3, referendum=False):
    lo = 1 if referendum else 0
    return [(sr, msg)
            for sr in product(range(lo, slots + 1), repeat=AGENT_COUNT)
            for msg in product((0, 1), repeat=AGENT_COUNT)]


def observation(v, agent, time, slots=3):
    """Perfect-recall local state: own initials plus, per step, the pair
    (own contribution, xor of the other two)."""
    sr, msg = v
    C, rr = contrib_table(sr, msg, slots)
    records = [(sr[agent], msg[agent])]
    for u in range(1, time + 1):
        own = C[agent][u - 1]
        records.append((own, rr[u - 1] ^ own))
    return tuple(records)


def blocks(vs, agent, time, slots=3):
    """Indistinguishability classes over the admissible assignments."""
    out = {}
    for v in vs:
        out.setdefault(observation(v, agent, time, slots), []).append(v)
    return out


def knows(vs, v, agent, time, pred, slots=3):
    """K_agent(pred) at (v, time): pred true at every indistinguishable v."""
    cls = blocks(vs, agent, time, slots)[observation(v, agent, time, slots)]
    return all(pred(w) for w in cls)


def conflict(sr, s):
    return sum(1 for x in sr if x == s) >= 2


def sender(v, agent, x, s):
    sr, msg = v
    return any(msg[j] == x and sr[j] == s for j in range(AGENT_COUNT) if j != agent)


def group_sorted(cols, bits, prev):
    """Reference grouping by the tuple (prev label, *cols), labelled densely
    in least-member order: pack the record into one int64 key, compressed
    through np.unique whenever the next column would pass 63 bits, then
    renumber the sorted unique keys by their first occurrence."""
    acc, width = (None, 0) if prev is None else \
        (prev[0].astype(np.int64), max(1, int(prev[1] - 1).bit_length()))
    for col, b in zip(cols, bits):
        if width + b > 63:
            keys, acc = np.unique(acc, return_inverse=True)
            width = max(1, (len(keys) - 1).bit_length())
        col = col.astype(np.int64)
        acc = col if acc is None else (acc << b) | col
        width += b
    _, first, inverse = np.unique(acc, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    remap = np.empty_like(order)
    remap[order] = np.arange(len(order))
    return remap[inverse].astype(np.int64), len(order)
