"""Naive reference implementations used as oracles.

Everything here works on plain tuples and exhaustive enumeration, entirely
independent of the library's chain-based engine.  Only usable at desk scale:
subset scans up to degree ~20, closures up to a few tens of thousands of
elements.
"""

from itertools import combinations, permutations


def compose(p, q):
    """Apply p first, then q."""
    return tuple(q[i] for i in p)


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def closure(gens, limit=None):
    """All elements of the generated group, as a set of tuples."""
    if not gens:
        return set()
    n = len(gens[0])
    ident = tuple(range(n))
    elements = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in gens]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                x = compose(e, g)
                if x not in elements:
                    elements.add(x)
                    new.append(x)
                    if limit is not None and len(elements) > limit:
                        raise RuntimeError(f"closure exceeded {limit} elements")
        frontier = new
    return elements


def stabilizer(elements, points):
    pts = tuple(points)
    return {e for e in elements if all(e[x] == x for x in pts)}


def orbit(elements, point):
    return {e[point] for e in elements}


def orbit_under(gens, point):
    """Orbit of a point under generators (tuples), by closing under images."""
    seen = {point}
    frontier = [point]
    while frontier:
        frontier = {g[x] for x in frontier for g in gens} - seen
        seen.update(frontier)
    return seen


def orbit_labels(degree, gens):
    """Each point's smallest orbit point, one breadth-first search per orbit."""
    labels = [None] * degree
    for start in range(degree):
        if labels[start] is None:
            labels[start] = start
            queue = [start]
            for x in queue:  # grows while walked
                for g in gens:
                    if labels[g[x]] is None:
                        labels[g[x]] = start
                        queue.append(g[x])
    return labels


def stabilizer_orders(degree, elements):
    """The order of the pointwise stabilizer of every subset of points, keyed
    by the subset as a sorted tuple.

    Each stabilizer is filtered from that of the subset without its largest
    point, one subset size at a time.
    """
    level = {(): list(elements)}
    orders = {(): len(level[()])}
    for r in range(1, degree + 1):
        level = {
            subset: [e for e in level[subset[:-1]] if e[subset[-1]] == subset[-1]]
            for subset in combinations(range(degree), r)
        }
        orders.update((subset, len(stab)) for subset, stab in level.items())
    return orders


def _deletions(subset):
    return (subset[:i] + subset[i + 1 :] for i in range(len(subset)))


def minimal_base_sizes(degree, elements):
    """Sizes of minimal bases by scanning every subset."""
    orders = stabilizer_orders(degree, elements)
    return {
        len(subset)
        for subset, order in orders.items()
        if subset and order == 1 and all(orders[d] > 1 for d in _deletions(subset))
    }


def irredundant_base_sizes(degree, elements):
    """Lengths of irredundant bases by exploring every descent sequence."""
    memo = {}

    def lengths(stab):
        key = frozenset(stab)
        got = memo.get(key)
        if got is not None:
            return got
        if len(stab) == 1:
            out = {0}
        else:
            out = set()
            for x in range(degree):
                sub = {e for e in stab if e[x] == x}
                if len(sub) < len(stab):
                    out |= {l + 1 for l in lengths(sub)}
        memo[key] = out
        return out

    return lengths(elements)


def first_irredundant_bases(degree, elements, minima=False):
    """The lexicographically first irredundant base of each length.

    With ``minima=True`` each point must also be the smallest point of its
    orbit under the stabilizer of the points before it.
    """
    out = {}
    for target in irredundant_base_sizes(degree, elements):
        seq = []
        stab = set(elements)
        while len(seq) < target:
            for x in range(degree):
                if minima and min(orbit(stab, x)) != x:
                    continue
                sub = {e for e in stab if e[x] == x}
                if len(sub) < len(stab) and target - len(seq) - 1 in irredundant_base_sizes(degree, sub):
                    seq.append(x)
                    stab = sub
                    break
        out[target] = tuple(seq)
    return out


def independent_set_sizes(degree, elements):
    """Sizes of independent sets (every point's removal grows the stabilizer)."""
    orders = stabilizer_orders(degree, elements)
    return {
        len(subset)
        for subset, order in orders.items()
        if all(orders[d] > order for d in _deletions(subset))
    }


def height(degree, elements):
    return max(independent_set_sizes(degree, elements))


def is_irredundant_sequence(elements, seq):
    stab = set(elements)
    for x in seq:
        sub = {e for e in stab if e[x] == x}
        if len(sub) == len(stab):
            return False
        stab = sub
    return len(stab) == 1


def stabilizer_classes(degree, elements):
    """The distinct point stabilizers, each a frozenset of elements.

    Points with equal stabilizers are interchangeable in a base, and a
    minimal base holds at most one point of each class.
    """
    return {frozenset(e for e in elements if e[x] == x) for x in range(degree)}


def conjugates(subgroup, gens):
    """The distinct conjugates ``g^-1 S g`` of a subgroup ``S`` (a set of
    tuples) by the group that ``gens`` generate, found breadth-first."""
    pairs = [(tuple(g), inverse(g)) for g in gens]
    start = frozenset(subgroup)
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for s in frontier:
            for g, ginv in pairs:
                t = frozenset(compose(compose(ginv, h), g) for h in s)
                if t not in seen:
                    seen.add(t)
                    new.append(t)
        frontier = new
    return seen


def minimal_trivial_families(subgroups):
    """Sizes of the minimal families of subgroups with trivial intersection.

    Applied to the distinct point stabilizers of a group, these are exactly
    its minimal base sizes: pick one point per member of such a family.
    """
    subgroups = list(subgroups)

    def trivial(family):
        return bool(family) and len(frozenset.intersection(*family)) == 1

    sizes = set()
    for r in range(1, len(subgroups) + 1):
        for family in combinations(subgroups, r):
            if trivial(family) and all(
                not trivial(family[:i] + family[i + 1 :]) for i in range(r)
            ):
                sizes.add(r)
    return sizes


def wreath_coset_images(n, k, gens):
    """S_n wr C_k on the right cosets of S_n^(k-2) x Stab(n-1) x 1.

    ``gens`` generate the imprimitive wreath product on n*k points, block b
    being the points b*n .. b*n+n-1.  A coset Hg is identified by the triple
    (rotation exponent of g, image of the last point of block k-2 within its
    block, g's component on block k-1), a bijection onto the cosets.  Cosets
    are numbered breadth-first from H over representatives times
    generators, in list order.  Returns one image list per generator.
    """

    def triple(g):
        return (
            g[0] // n,
            g[(k - 2) * n + n - 1] % n,
            tuple(g[(k - 1) * n + v] % n for v in range(n)),
        )

    gens = [tuple(g) for g in gens]
    reps = [tuple(range(n * k))]
    number = {triple(reps[0]): 0}
    images = [[] for _ in gens]
    qi = 0
    while qi < len(reps):
        for col, g in zip(images, gens):
            cand = compose(reps[qi], g)
            t = triple(cand)
            if t not in number:
                number[t] = len(reps)
                reps.append(cand)
            col.append(number[t])
        qi += 1
    return images


def coset_action_images(gens, points):
    """The group of ``gens`` (at least one) on the right cosets of its
    pointwise stabilizer H of the tuple ``points``, by element arithmetic.

    H is filtered from the closure, and a candidate ``c`` lies in the coset
    ``Hr`` of a representative ``r`` exactly when ``c r^-1`` is in H; no
    image tuple is formed.  Cosets are numbered breadth-first from H over
    representatives times generators, in list order.  Returns one image
    list per generator.
    """
    gens = [tuple(g) for g in gens]
    H = stabilizer(closure(gens), points)
    reps = [tuple(range(len(gens[0])))]
    rep_inverses = list(reps)
    images = [[] for _ in gens]
    for r in reps:  # grows while walked
        for col, g in zip(images, gens):
            cand = compose(r, g)
            for target, r_inv in enumerate(rep_inverses):
                if compose(cand, r_inv) in H:
                    break
            else:
                target = len(reps)
                reps.append(cand)
                rep_inverses.append(inverse(cand))
            col.append(target)
    return images


def product_action_fold(factors):
    """The product action of ``factors`` by a pairwise left fold.

    Each factor is a triple (degree, generators as image tuples, order); so
    is the result.  Step by step, the pair (d, l) of a point d of the
    product so far and a point l of the next factor is point
    ``d * degree + l``, the running generators come first and the order is
    the product of the two.
    """
    degree, gens, order = factors[0]
    for dh, hgens, horder in factors[1:]:
        pairs = [(d, l) for d in range(degree) for l in range(dh)]
        gens = [tuple(g[d] * dh + l for d, l in pairs) for g in gens] + [
            tuple(d * dh + h[l] for d, l in pairs) for h in hgens
        ]
        degree, order = degree * dh, order * horder
    return degree, gens, order


def disjoint_product_fold(factors):
    """The disjoint product of ``factors``, triples as in
    ``product_action_fold``, by a pairwise left fold: step by step the next
    factor's points follow those of the product so far."""
    degree, gens, order = factors[0]
    for dh, hgens, horder in factors[1:]:
        tail = tuple(range(degree, degree + dh))
        gens = [tuple(g) + tail for g in gens] + [
            tuple(range(degree)) + tuple(degree + x for x in h) for h in hgens
        ]
        degree, order = degree + dh, order * horder
    return degree, gens, order
