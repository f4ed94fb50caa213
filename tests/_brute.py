"""Independent brute-force oracles, kept free of the library's own code
paths: plain loops, no numpy, no shared helpers."""

from itertools import permutations, product


def brute_axioms(table):
    """Same flags and lexicographic counterexample conventions as the
    library, recomputed with naive scans."""
    n = len(table)
    rng = range(n)
    out = {}

    out["commutative"], out["commutative_ce"] = True, None
    for a, b in product(rng, rng):
        if table[a][b] != table[b][a]:
            out["commutative"], out["commutative_ce"] = False, (a, b)
            break

    out["cancellative"], out["cancellative_ce"] = True, None
    for a, b, c in product(rng, rng, rng):
        if a != b and table[a][c] == table[b][c]:
            out["cancellative"], out["cancellative_ce"] = False, (a, b, c)
            break
    if out["cancellative"]:
        for a, b, c in product(rng, rng, rng):
            if a != b and table[c][a] == table[c][b]:
                out["cancellative"], out["cancellative_ce"] = False, (a, b, c)
                break

    out["medial"], out["medial_ce"] = True, None
    for a, b, c, d in product(rng, rng, rng, rng):
        if table[table[a][b]][table[c][d]] != table[table[a][c]][table[b][d]]:
            out["medial"], out["medial_ce"] = False, (a, b, c, d)
            break

    out["associative"], out["associative_ce"] = True, None
    for a, b, c in product(rng, rng, rng):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            out["associative"], out["associative_ce"] = False, (a, b, c)
            break

    out["idempotents"] = tuple(i for i in rng if table[i][i] == i)
    return out


def brute_difunctional(member):
    rows = len(member)
    cols = len(member[0]) if rows else 0
    for x, y, z, w in product(range(rows), range(cols), range(rows), range(cols)):
        if member[x][y] and member[z][y] and member[z][w] and not member[x][w]:
            return False
    return True


def brute_transitive(member):
    n = len(member)
    for a, b, c in product(range(n), repeat=3):
        if member[a][b] and member[b][c] and not member[a][c]:
            return False
    return True


def brute_star(table, e):
    """Reconstruct the star table by scanning for the solution of
    star(x, y) op e = x op y, pair by pair."""
    n = len(table)
    star = []
    for x in range(n):
        row = []
        for y in range(n):
            target = table[x][y]
            hits = [z for z in range(n) if table[z][e] == target]
            if len(hits) != 1:
                return None
            row.append(hits[0])
        star.append(tuple(row))
    return tuple(star)


def brute_monoid_invariants(table, star, e):
    """Every monoid invariant by naive scans: unit e, commutative,
    associative, star(x, y) op e = x op y, and the compatibility
    (x*y) op (z*w) = (x op z)*(y op w) over all quadruples."""
    rng = range(len(table))
    if any(star[e][x] != x for x in rng):
        return False
    for x, y in product(rng, rng):
        if star[x][y] != star[y][x] or table[star[x][y]][e] != table[x][y]:
            return False
    for x, y, z in product(rng, rng, rng):
        if star[star[x][y]][z] != star[x][star[y][z]]:
            return False
    for x, y, z, w in product(rng, rng, rng, rng):
        if table[star[x][y]][star[z][w]] != star[table[x][z]][table[y][w]]:
            return False
    return True


def brute_groups_isomorphic(t1, t2):
    """Search all bijections; only usable at tiny orders."""
    n = len(t1)
    if len(t2) != n:
        return False
    for perm in permutations(range(n)):
        if all(perm[t1[a][b]] == t2[perm[a]][perm[b]]
               for a in range(n) for b in range(n)):
            return True
    return False


def endomorphism_pool(table, limit=None):
    """All self-maps preserving the operation, by backtracking."""
    n = len(table)
    found = []

    def consistent(partial):
        k = len(partial)
        for x in range(k):
            for y in range(k):
                z = table[x][y]
                if z < k and partial[z] != table[partial[x]][partial[y]]:
                    return False
        return True

    def walk(partial):
        if limit is not None and len(found) >= limit:
            return
        if len(partial) == n:
            found.append(tuple(partial))
            return
        for v in range(n):
            partial.append(v)
            if consistent(partial):
                walk(partial)
            partial.pop()

    walk([])
    return found
