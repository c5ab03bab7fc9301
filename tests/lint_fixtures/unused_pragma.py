"""RL008: pragmas that no finding matches are themselves findings
(linted as repro.vector.kern)."""

from repro.vector import xp  # repro-lint: disable=RL001 -- line 4: unused (xp is not numpy)

# repro-lint: disable-file=RL006 -- line 6: unused (no clock reads here)


def kernel(batch, ns):
    return ns.asarray(batch, dtype=ns.float64)
