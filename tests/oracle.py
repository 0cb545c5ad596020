"""Reference event loop for the legality pass, used only as a test oracle.

Given a log's rings, it replays them in global time order with one spin table
and returns what legality and spin-after each ring must have.  Ties in time
break by site order, as in the simulator.
"""

import numpy as np

from eastlab.lattice import site_sub_e


def event_loop(log):
    """(legal, spin_after) per window site, aligned with ``log.rings(x)``."""
    params, initial = log.params, log.initial
    sites = log.window.sites
    n = len(sites)
    index = {x: i for i, x in enumerate(sites)}

    # neighbor slot table; slot n holds the frozen exterior spin, slots beyond
    # it hold exterior override spins
    extra_spins: list[int] = []
    override_slot: dict = {}
    nbrs: list[tuple[int, ...]] = []
    for x in sites:
        row = []
        for i in range(params.d):
            y = site_sub_e(x, i)
            j = index.get(y)
            if j is None:
                if y in initial.exterior_overrides:
                    if y not in override_slot:
                        override_slot[y] = n + 1 + len(extra_spins)
                        extra_spins.append(initial.exterior_overrides[y])
                    j = override_slot[y]
                else:
                    j = n
            row.append(j)
        nbrs.append(tuple(row))

    rings = [log.rings(x) for x in sites]
    times = np.concatenate([r[0] for r in rings])
    ev_site = np.concatenate([np.full(r[0].size, i) for i, r in enumerate(rings)])
    ev_bit = np.concatenate([r[1] for r in rings])
    ev_pos = np.concatenate([np.arange(r[0].size) for r in rings])
    order = np.argsort(times, kind="stable")

    spins = list(initial.spins) + [initial.exterior] + extra_spins
    legal = [np.zeros(r[0].size, dtype=bool) for r in rings]
    after = [np.zeros(r[0].size, dtype=np.int8) for r in rings]
    for k in order:
        si = int(ev_site[k])
        ok = any(spins[j] == 0 for j in nbrs[si])
        if ok:
            spins[si] = int(ev_bit[k])
        legal[si][ev_pos[k]] = ok
        after[si][ev_pos[k]] = spins[si]
    return legal, after
