"""Plain references for the literal readers.

``reference_split_top`` is the splitter as one walk over the characters,
keeping a bracket depth: a separator splits only at depth 0.  It returns every
part stripped, empty parts included, as ``cli._split_top`` does.

``reference_element_by_name`` is ``FiniteGroup.element_by_name`` by linear
scans of the names and of the permutations.
"""

from skewhecke.groups import parse_cycles


def reference_split_top(s, seps):
    parts = []
    depth = 0
    cur = []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch in seps:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def reference_element_by_name(G, name):
    name = name.strip()
    if name in G.names:
        return G.names.index(name)
    if G.perms is not None:
        p = parse_cycles(name, len(G.perms[0]))
        if p not in G.perms:
            raise ValueError(f"element {name!r} is not in this group of order {G.order}")
        return G.perms.index(p)
    if name.startswith("g") and name[1:].isdigit() and int(name[1:]) < G.order:
        return int(name[1:])
    raise ValueError(f"unknown element {name!r}")
