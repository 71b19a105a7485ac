"""Independent brute-force oracles used to cross-validate the library.

Everything here is deliberately written from the definitions, sharing no
algorithmic machinery with the package: multiplication is schoolbook
polynomial arithmetic, affine dependence enumerates coefficient vectors,
inverses are found by scanning, and the search oracle is an unpruned DFS
with no symmetry reduction.  Two are exceptions: `pruned_search_replay`
replays the package's pruned search rules on the rank test, so that node
counts, not just values, can be compared, and `greedy_by_shuffle` runs the
package's greedy kernels in `random.shuffle` order.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations, product


def naive_mul(field, a: int, b: int) -> int:
    """Schoolbook polynomial product mod the field modulus."""
    p, d = field.p, field.d
    ca = [(a // p**i) % p for i in range(d)]
    cb = [(b // p**i) % p for i in range(d)]
    prod = [0] * (2 * d - 1)
    for i in range(d):
        for j in range(d):
            prod[i + j] = (prod[i + j] + ca[i] * cb[j]) % p
    mod = list(field.modulus)
    for top in range(len(prod) - 1, d - 1, -1):
        coef = prod[top]
        if coef:
            for i in range(d + 1):
                prod[top - d + i] = (prod[top - d + i] - coef * mod[i]) % p
    return sum(prod[i] * p**i for i in range(d))


_inv_cache: dict = {}


def naive_inv(field, a: int) -> int:
    """Multiplicative inverse found by scanning all elements."""
    key = (field.p, field.d, field.modulus, a)
    hit = _inv_cache.get(key)
    if hit is not None:
        return hit
    for b in range(1, field.q):
        if naive_mul(field, a, b) == 1:
            _inv_cache[key] = b
            return b
    raise AssertionError(f"no inverse for {a}")


def dependent_by_enumeration(field, pts) -> bool:
    """Affine dependence straight from the definition: some nonzero
    coefficient vector summing to 0 kills the points.  Exponential in
    len(pts); only for tiny instances."""
    n = len(pts[0])
    for coeffs in product(range(field.q), repeat=len(pts)):
        if not any(coeffs):
            continue
        total = 0
        for c in coeffs:
            total = field.add(total, c)
        if total != 0:
            continue
        out = [0] * n
        for c, pt in zip(coeffs, pts):
            for i in range(n):
                out[i] = field.add(out[i], field.mul(c, pt[i]))
        if not any(out):
            return True
    return False


def rank_oracle(field, pts) -> int:
    """Row-echelon rank of {p - p0}, written independently of the library."""
    base = pts[0]
    rows = [[field.sub(c, b) for c, b in zip(p, base)] for p in pts[1:]]
    rank = 0
    ncols = len(base)
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = naive_inv(field, rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def m_general_oracle(field, pts, m: int) -> bool:
    """Every subset of size min(m, |pts|) affinely independent, via rank_oracle."""
    s = min(m, len(pts))
    if s <= 2:
        return True
    for sub in combinations(pts, s):
        if rank_oracle(field, sub) != s - 1:
            return False
    return True


def m_general_by_forms(field, pts, m: int) -> bool:
    """The arithmetic characterization by enumeration: no all-nonzero
    zero-sum coefficient multiset of size 3 <= t <= m vanishes on t distinct
    points, over every t-subset and every distinct arrangement of the
    coefficients.  Theta(N^m); the small-N reference for the package's
    meet-in-the-middle `is_m_general_arithmetic`."""
    n = len(pts[0])
    for t in range(3, min(m, len(pts)) + 1):
        for ms in combinations_with_replacement(range(1, field.q), t):
            total = 0
            for c in ms:
                total = field.add(total, c)
            if total != 0:
                continue
            arrangements = sorted(set(permutations(ms)))
            for subset in combinations(pts, t):
                for cs in arrangements:
                    out = [0] * n
                    for c, pt in zip(cs, subset):
                        for i in range(n):
                            out[i] = field.add(out[i], field.mul(c, pt[i]))
                    if not any(out):
                        return False
    return True


def form_vanishes(field, coeffs, pts) -> bool:
    """Is there a tuple of len(coeffs) distinct points of pts on which the
    all-nonzero coeffs combine to 0?  Every subset times every distinct
    arrangement of the coefficients, which covers exactly the injective
    tuples.  The reference for the package's `weakly_avoids`."""
    t = len(coeffs)
    if t > len(pts):
        return False
    n = len(pts[0])
    arrangements = sorted(set(permutations(coeffs)))
    for subset in combinations(pts, t):
        for cs in arrangements:
            out = [0] * n
            for c, pt in zip(cs, subset):
                for i in range(n):
                    out[i] = field.add(out[i], field.mul(c, pt[i]))
            if not any(out):
                return True
    return False


def bk_by_multisets(field, pts, k: int) -> bool:
    """B_k by enumeration: every k-multiset of pts summed coordinatewise,
    False at the first two multisets with equal sums that are not the same
    multiset (in characteristic 2: the same odd-multiplicity support).  The
    reference for the package's collision-loop `is_bk`."""
    n = len(pts[0]) if pts else 0
    seen: dict[tuple, tuple] = {}
    for ms in combinations_with_replacement(pts, k):
        if field.p == 2:
            key = tuple(sorted(p for p in set(ms) if ms.count(p) % 2 == 1))
        else:
            key = ms
        out = [0] * n
        for p in ms:
            for i in range(n):
                out[i] = field.add(out[i], p[i])
        s = tuple(out)
        if s in seen and seen[s] != key:
            return False
        seen[s] = key
    return True


def sidon_oracle_q2(codes) -> bool:
    """Distinct pair XORs over distinct elements, plain set version."""
    seen = set()
    for i, a in enumerate(codes):
        for b in codes[i + 1 :]:
            s = a ^ b
            if s in seen:
                return False
            seen.add(s)
    return True


def apn_by_counting(f):
    """(is APN, max solution count) of f(x + a) + f(x) = b over a != 0 and
    b, counting every x for every a."""
    q, vals = f.field.q, f.values
    worst = 0
    for a in range(1, q):
        counts = [0] * q
        for x in range(q):
            counts[vals[x ^ a] ^ vals[x]] += 1
        worst = max(worst, max(counts))
    return worst <= 2, worst


def brute_force_max(field, n: int, m: int, node_budget: int = 10_000_000,
                    time_budget: float | None = None):
    """Unpruned DFS over every m-general subset: no origin fixing, no best
    bound, no cap.  Returns (max size, lex-least maximum witness, nodes) or
    None when a budget runs out.

    The tree is the set of all m-general subsets in canonical order, so the
    first witness reached at the maximum size is the lexicographically least.
    """
    import time as _time

    deadline = None if time_budget is None else _time.monotonic() + time_budget
    q = field.q
    total = q**n
    decoded = []
    for code in range(total):
        coords, c = [], code
        for _ in range(n):
            coords.append(c % q)
            c //= q
        decoded.append(tuple(reversed(coords)))

    use_sidon = q == 2 and m == 4
    best = {"size": 0, "witness": (), "nodes": 0}

    def feasible(chosen_pts, cand_pt) -> bool:
        s = min(m, len(chosen_pts) + 1)
        if s <= 2:
            return True
        for rest in combinations(chosen_pts, s - 1):
            if rank_oracle(field, rest + (cand_pt,)) != s - 1:
                return False
        return True

    def dfs(codes, pts, sums, start) -> bool:
        best["nodes"] += 1
        if best["nodes"] > node_budget:
            return False
        if deadline is not None and best["nodes"] % 256 == 0 and _time.monotonic() > deadline:
            return False
        if len(codes) > best["size"]:
            best["size"] = len(codes)
            best["witness"] = tuple(decoded[c] for c in codes)
        for code in range(start, total):
            if use_sidon:
                new = {code ^ a for a in codes}
                if new & sums:
                    continue
                codes.append(code)
                if not dfs(codes, pts, sums | new, code + 1):
                    return False
                codes.pop()
            else:
                cand = decoded[code]
                if not feasible(pts, cand):
                    continue
                codes.append(code)
                pts.append(cand)
                if not dfs(codes, pts, sums, code + 1):
                    return False
                codes.pop()
                pts.pop()
        return True

    completed = dfs([], [], set(), 0)
    if not completed:
        return None
    return best["size"], best["witness"], best["nodes"]


def pruned_search_replay(field, n: int, m: int, max_nodes: int, workers: int = 1):
    """The exact search's tree, replayed on `affine.add_point_preserves`:
    the origin fixed and not counted, points in canonical order (codes with
    the first coordinate most significant), lowest first, and a child tried
    only while |A| plus the candidates left beats the best size.  The node
    that reaches `bounds.search_cap` ends the run uncounted; the node past
    max_nodes ends it counted.  No clock.  A point blocked for A stays
    blocked for every superset, so a child tests only the points its parent
    allowed.

    The second points are split as `search_exact` splits them for workers:
    one span for 1, else windows of ceil((q^n - 1) / 4 workers) codes.  Each
    span is a search of its own from the origin with the budget
    max_nodes // spans; its first level tries only its window, but every
    allowed point above the window's start counts toward the size bound.
    Spans are collected in order up to the first that reaches the cap, and
    the first span of the largest size gives the witness.  Returns (value,
    witness points, exact, nodes)."""
    from mgeneral.affine import PointSet, add_point_preserves
    from mgeneral.bounds import search_cap

    q, total = field.q, field.q**n
    points = [tuple(code // q ** (n - 1 - j) % q for j in range(n)) for code in range(total)]
    cap = search_cap(n, q, m)[0]
    chunk = total - 1 if workers == 1 else -(-(total - 1) // (4 * workers))
    starts = range(1, total, chunk)
    budget = max_nodes // len(starts)

    def dfs(run, A, codes, allowed, hi) -> bool:  # False once the span ends early
        for i, code in enumerate(allowed):
            if len(codes) + len(allowed) - i <= len(run["codes"]) or code >= hi:
                return True
            grown = codes + [code]
            if len(grown) > len(run["codes"]):
                run["codes"] = grown
                if cap is not None and len(grown) >= cap:
                    return False
            run["nodes"] += 1
            if run["nodes"] > budget:
                run["stopped"] = True
                return False
            child = A.with_point(points[code])
            later = [c for c in allowed[i + 1:] if add_point_preserves(child, points[c], m)]
            if not dfs(run, child, grown, later, total):
                return False
        return True

    origin = PointSet.of(field, n, [points[0]])
    runs = []
    for lo in starts:
        run = {"codes": [0], "nodes": 0, "stopped": False}
        later = [c for c in range(lo, total) if add_point_preserves(origin, points[c], m)]
        dfs(run, origin, [0], later, lo + chunk)
        runs.append(run)
        if cap is not None and len(run["codes"]) >= cap:
            break
    best = max(runs, key=lambda r: len(r["codes"]))
    exact = not any(r["stopped"] for r in runs) or cap is not None and len(best["codes"]) >= cap
    codes = best["codes"]
    return len(codes), tuple(points[c] for c in codes), exact, sum(r["nodes"] for r in runs)


def greedy_reference(field, n: int, m: int, seed: int, restarts: int):
    """Randomized greedy on a rank-based incremental test, with the
    package's shuffle: restart r scans the point codes in
    `random.Random(f"{seed}:{r}")` shuffled order, and the largest result
    wins, ties going to the lex-least sorted codes.  The test is
    `affine.add_point_preserves`, a rank test for every (q, m).
    Returns (value, witness points, candidate checks)."""
    import random

    from mgeneral.affine import PointSet, add_point_preserves

    q = field.q
    total = q**n

    def decode(code):
        coords = []
        for _ in range(n):
            code, c = divmod(code, q)
            coords.append(c)
        return tuple(reversed(coords))

    best, checks = [], 0
    for r in range(restarts):
        order = list(range(total))
        random.Random(f"{seed}:{r}").shuffle(order)
        chosen = PointSet.of(field, n, [])
        codes = []
        for code in order:
            checks += 1
            pt = decode(code)
            if add_point_preserves(chosen, pt, m):
                chosen = chosen.with_point(pt)
                codes.append(code)
        codes.sort()
        if len(codes) > len(best) or (len(codes) == len(best) and codes < best):
            best = codes
    return len(best), tuple(decode(c) for c in best), checks


def greedy_by_shuffle(n: int, q, m: int, seed: int, restarts: int):
    """`search.search_greedy` as it ran on `random.shuffle`: restart r scans
    every point code in `random.Random(f"{seed}:{r}").shuffle` order on the
    package's own kernel, with no early end.  Like `pruned_search_replay`
    it shares the package's machinery, here to pin the package's own draw
    of the order to `shuffle` on whole certificates, at sizes too large for
    `greedy_reference`.  Returns the certificate."""
    import random

    from mgeneral import search

    field, total, bound = search._setup(n, q, m)
    settled = search._settled_size(field.q, n, m)
    kernel = search._kernel(field, n, m) if settled is None else None
    best = []
    for r in range(restarts):
        order = list(range(total))
        random.Random(f"{seed}:{r}").shuffle(order)
        if kernel is None:
            chosen = order[:settled]
        else:
            chosen, state = [], kernel.empty
            for code in order:
                if not state[0] >> code & 1:
                    state = kernel.extend(state, code)
                    chosen.append(code)
        chosen.sort()
        if (-len(chosen), chosen) < (-len(best), best):
            best = chosen
    return search._make_certificate(
        field, n, m, best, bound, exact=False, nodes_explored=restarts * total,
        seed=seed, restarts=restarts, reductions=("greedy",))


def finite_difference(fn, t: float, eps: float = 1e-7) -> float:
    return (fn(t + eps) - fn(t - eps)) / (2 * eps)
