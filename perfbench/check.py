"""Independent answer checker.

Everything here is recomputed from the request with the benchmark's own
arithmetic.  Python integers do not wrap, so a cost that overflowed the
daemon's 63-bit integers shows up as a mismatch instead of being
reproduced.  ``check(req, resp)`` returns a list of problems (empty when
the answer is right).  ``compulsory(req)`` is the traffic of moving every
element of every external tensor once, the denominator of the
``traffic_over_bound`` metric.
"""

import bisect
import itertools
import math

from gen import BATCH, ZOO, zoo_ops

# ------------------------------------------------------------------ lattices


def divisors(n):
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i * i != n:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def candidates(lattice, n):
    """Tile sizes a search may visit for a dimension of size n, increasing."""
    if lattice == "divisors":
        return divisors(n)
    if lattice == "pow2":
        c = set()
        p = 1
        while p <= n:
            c.add(p)
            p *= 2
        c.add(n)
        return sorted(c)
    if lattice == "all":
        return list(range(1, n + 1))
    raise ValueError(lattice)


def ceil_div(a, b):
    return -(-a // b)


# ------------------------------------------------------------------ point nests
#
# A point nest is a set of axes with extents and tensors, each indexed by
# a subset of the axes.  Loop model (documented in lib/loopnest/cost.mli
# and lib/nest/nest.ml): the buffer holds one tile per tensor; a tensor
# is swept once, plus once more every time a tiled loop over an axis it
# does not use advances outside its innermost tiled used axis.  Traffic
# of a tensor = revisit x size.


def nest_traffic(extents, tensors, tiles, order):
    """Traffic of a schedule; ``order`` lists axis indices outermost first."""
    trips = [ceil_div(e, t) for e, t in zip(extents, tiles)]
    pos = {a: p for p, a in enumerate(order)}
    total = 0
    for used, _internal in tensors:
        if _internal:
            continue
        tiled = [pos[a] for a in used if trips[a] > 1]
        revisit = 1
        if tiled:
            p_star = max(tiled)
            for a in range(len(extents)):
                if a not in used and trips[a] > 1 and pos[a] < p_star:
                    revisit *= trips[a]
        size = 1
        for a in used:
            size *= extents[a]
        total += revisit * size
    return total


def nest_footprint(tiles, tensors):
    fp = 0
    for used, _internal in tensors:
        t = 1
        for a in used:
            t *= tiles[a]
        fp += t
    return fp


def scan_min(extents, tensors, lattice, cap):
    """Literal scan of the tiling lattice (every axis but the last
    enumerated, the last taken as large as fits: traffic never grows with
    a tile) and every loop order.  Exponential; for small nests and tests."""
    n = len(extents)
    cands = [candidates(lattice, e) for e in extents]
    best = None
    for head in itertools.product(*cands[:-1]):
        feasible = [t for t in cands[-1] if nest_footprint(list(head) + [t], tensors) <= cap]
        if not feasible:
            continue
        tiles = list(head) + [feasible[-1]]
        for order in itertools.permutations(range(n)):
            c = nest_traffic(extents, tensors, tiles, order)
            if best is None or c < best:
                best = c
    return best


# Matmul as a point nest: axes M, K, L; A = M x K, B = K x L, C = M x L.
MM_TENSORS = [((0, 1), False), ((1, 2), False), ((0, 2), False)]
AXIS = {"M": 0, "K": 1, "L": 2}


def mm_min(m, k, l, lattice, cap):
    """Least matmul traffic over a tiling lattice and all six loop orders,
    by closed-form minimization per order.

    For an order (o1, o2, o3), outermost first, write S_i for the size of
    the operand that does not use axis o_i and n_i for the trip count of
    o_i.  The operand free in o3 is never revisited; the one free in o2
    is revisited n2 times iff o3 is tiled; the one free in o1 n1 times
    iff o2 or o3 is tiled.  Hence
      n3 = n2 = 1 : S1 + S2 + S3
      n3 = 1 < n2 : S1*n1 + S2 + S3          (smallest o2 tile is best)
      n3 > 1      : S1*n1 + S2*n2 + S3       (o3 tile = 1 is best)
    and in each case traffic falls as the remaining tiles grow, so one
    pass over one axis' candidates with the other maximized suffices.
    ``scan_min`` cross-checks this in the tests.
    """
    dims = (m, k, l)
    free_size = (k * l, m * l, m * k)  # size of the operand that does not use axis a
    cands = [candidates(lattice, d) for d in dims]

    def fp(t):
        return t[0] * t[1] + t[1] * t[2] + t[0] * t[2]

    def largest(axis, t, limit_cap):
        # largest candidate for ``axis`` with the other tiles fixed in t
        others = [a for a in range(3) if a != axis]
        a, b = t[others[0]], t[others[1]]
        # footprint = a*b + x*(a+b) <= cap
        room = limit_cap - a * b
        if room < a + b:
            return None
        xmax = room // (a + b)
        i = bisect.bisect_right(cands[axis], xmax)
        return cands[axis][i - 1] if i > 0 else None

    best = None
    for o1, o2, o3 in itertools.permutations(range(3)):
        s1, s2, s3 = free_size[o1], free_size[o2], free_size[o3]
        # case n3 = n2 = 1
        t = [0, 0, 0]
        t[o2], t[o3] = dims[o2], dims[o3]
        t[o1] = cands[o1][0]
        if fp(t) <= cap:
            c = s1 + s2 + s3
            best = c if best is None or c < best else best
        # case n3 = 1 < n2
        if dims[o2] > 1:
            t = [0, 0, 0]
            t[o3], t[o2] = dims[o3], cands[o2][0]
            t[o1] = cands[o1][0]
            if fp(t) <= cap:
                x = largest(o1, t, cap)
                t[o1] = x
                c = s1 * ceil_div(dims[o1], x) + s2 + s3
                best = c if best is None or c < best else best
        # case n3 > 1
        if dims[o3] > 1:
            for x1 in cands[o1]:
                t = [0, 0, 0]
                t[o3], t[o1], t[o2] = cands[o3][0], x1, cands[o2][0]
                if fp(t) > cap:
                    break
                x2 = largest(o2, t, cap)
                c = s1 * ceil_div(dims[o1], x1) + s2 * ceil_div(dims[o2], x2) + s3
                best = c if best is None or c < best else best
    return best


# ------------------------------------------------------------------ requests


def buffer_elements(req):
    return req["buffer"] // req.get("elt_bytes", 1)


def refine_lattice(mode):
    # the daemon verifies intra plans against the divisor lattice in
    # both "divisors" and "exact" modes (Engine.refine_lattice)
    return "pow2" if mode == "pow2" else "divisors"


def nest_lattice(mode):
    return {"divisors": "divisors", "pow2": "pow2", "exact": "all"}[mode]


def conv_out(size, pad, dil, kernel, stride):
    return (size + 2 * pad - dil * (kernel - 1) - 1) // stride + 1


def touched(size, out, kernel, stride, pad, dil):
    """Input rows (or columns) a convolution reads, padding excluded."""
    rows = set()
    for o in range(out):
        for r in range(kernel):
            x = o * stride + r * dil - pad
            if 0 <= x < size:
                rows.add(x)
    return len(rows)


def nest_spec(req):
    """(axes, extents, point tensors) of a nest request; conv2d tensors are
    returned as None (its input is a window, not a point access)."""
    kind = req["kind"]
    if kind == "matmul":
        return ["m", "k", "l"], [req["m"], req["k"], req["l"]], MM_TENSORS
    if kind == "batched_mm":
        return (["b", "m", "k", "l"], [req["b"], req["m"], req["k"], req["l"]],
                [((0, 1, 2), False), ((0, 2, 3), False), ((0, 1, 3), False)])
    if kind == "grouped_mm":
        return (["g", "h", "m", "k", "l"],
                [req["groups"], req["heads"], req["m"], req["k"], req["l"]],
                [((0, 1, 2, 3), False), ((0, 3, 4), False), ((0, 1, 2, 4), False)])
    if kind == "attention":
        dv = req.get("dv", req["d"])
        return (["m", "n", "d", "e"], [req["seq_q"], req["seq_k"], req["d"], dv],
                [((0, 2), False), ((1, 2), False), ((1, 3), False), ((0, 1), True),
                 ((0, 3), False)])
    if kind == "conv2d":
        st, pad, dil = req.get("stride", 1), req.get("padding", 0), req.get("dilation", 1)
        oh = conv_out(req["h"], pad, dil, req["r"], st)
        ow = conv_out(req["w"], pad, dil, req["s"], st)
        return (["n", "ko", "oh", "ow", "c", "r", "s"],
                [req["n"], req["k"], oh, ow, req["c"], req["r"], req["s"]], None)
    raise ValueError(kind)


def conv_footprint(req, tiles):
    st, dil = req.get("stride", 1), req.get("dilation", 1)
    tn, tk, toh, tow, tc, tr, ts = tiles
    inp = tn * tc * ((toh - 1) * st + (tr - 1) * dil + 1) * ((tow - 1) * st + (ts - 1) * dil + 1)
    return inp + tk * tc * tr * ts + tn * tk * toh * tow


def model_macs(model, layers=1):
    ops = zoo_ops(model)
    heads = ZOO[model][0]
    total = 0
    for name, (m, k, l) in ops.items():
        count = BATCH * heads if name in ("qk", "sv") else 1
        total += count * m * k * l
    return total * layers


def model_compulsory(model, layers):
    """Weights of every layer read once, the model input read once and its
    output written once."""
    ops = zoo_ops(model)
    weights = sum(k * l for name, (m, k, l) in ops.items() if name not in ("qk", "sv"))
    heads, kv, seq, hidden = ZOO[model]
    return layers * weights + 2 * BATCH * seq * hidden


def compulsory(req):
    op = req["op"]
    if op == "intra":
        m, k, l = req["m"], req["k"], req["l"]
        return m * k + k * l + m * l
    if op == "fuse":
        m, k, l, l2 = req["m"], req["k"], req["l"], req["l2"]
        return m * k + k * l + l * l2 + m * l2
    if op == "chain":
        m, ks = req["m"], req["ks"]
        return m * ks[0] + sum(a * b for a, b in zip(ks, ks[1:])) + m * ks[-1]
    if op == "nest":
        if req["kind"] == "conv2d":
            st, pad, dil = req.get("stride", 1), req.get("padding", 0), req.get("dilation", 1)
            oh = conv_out(req["h"], pad, dil, req["r"], st)
            ow = conv_out(req["w"], pad, dil, req["s"], st)
            rows = touched(req["h"], oh, req["r"], st, pad, dil)
            cols = touched(req["w"], ow, req["s"], st, pad, dil)
            return (req["n"] * req["c"] * rows * cols + req["k"] * req["c"] * req["r"] * req["s"]
                    + req["n"] * req["k"] * oh * ow)
        _, extents, tensors = nest_spec(req)
        total = 0
        for used, internal in tensors:
            if not internal:
                total += math.prod(extents[a] for a in used)
        return total
    if op == "plan_model":
        return model_compulsory(req["model"], req["layers"])
    return None


def planned_traffic(req, resp):
    """The traffic a plan-bearing answer commits to, or None."""
    res = resp.get("result", {})
    op = req["op"]
    if op == "intra":
        return res.get("ma")
    if op in ("fuse", "chain", "nest", "plan_model"):
        return res.get("traffic")
    return None


def _int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def check(req, resp):
    problems = []

    def need(cond, msg):
        if not cond:
            problems.append(msg)
        return cond

    if not need(resp.get("ok") is True, "not ok: %s" % resp.get("error")):
        return problems
    op = req["op"]
    need(resp.get("op") == op, "op echo")
    res = resp["result"]
    for k in ("m", "k", "l", "l2", "ks", "model", "layers", "kind"):
        if k in req:
            need(res.get(k) == req[k], "echo of %s" % k)
    need(res.get("buffer_bytes") == req["buffer"], "echo of buffer")
    cap = buffer_elements(req)
    lower = compulsory(req)
    traffic = planned_traffic(req, resp)
    if traffic is not None and not need(_int(traffic), "traffic not an integer"):
        return problems
    if lower is not None and traffic is not None:
        need(traffic >= lower, "traffic %d below compulsory %d" % (traffic, lower))

    if op == "intra":
        m, k, l = req["m"], req["k"], req["l"]
        t = res["tiles"]
        tiles = [t["m"], t["k"], t["l"]]
        if not need(all(1 <= x <= d for x, d in zip(tiles, (m, k, l))), "tile out of range"):
            return problems
        if not need(sorted(res["order"]) == ["K", "L", "M"], "order not a permutation"):
            return problems
        order = [AXIS[a] for a in res["order"]]
        fp = nest_footprint(tiles, MM_TENSORS)
        need(res["footprint"] == fp, "footprint %s != recount %d" % (res["footprint"], fp))
        need(fp <= cap, "footprint %d over capacity %d" % (fp, cap))
        ma = nest_traffic([m, k, l], MM_TENSORS, tiles, order)
        need(res["ma"] == ma, "ma %s != recount %d" % (res["ma"], ma))
        need(res["redundancy"] >= 1.0 - 1e-9, "redundancy %s below 1" % res["redundancy"])
        best = mm_min(m, k, l, refine_lattice(req.get("mode", "divisors")), cap)
        need(best is not None and res["ma"] <= best,
             "lattice holds a cheaper schedule (%s < %s)" % (best, res["ma"]))
    elif op == "fuse" and res.get("fuse") is False:
        # unfused: each operator runs its own optimum on the lattice the
        # engine refines over (an exact-mode plan may beat the divisor
        # lattice, never the other way round)
        m, k, l, l2 = req["m"], req["k"], req["l"], req["l2"]
        lattice = refine_lattice(req.get("mode", "divisors"))
        parts = [mm_min(m, k, l, lattice, cap), mm_min(m, l, l2, lattice, cap)]
        if need(None not in parts, "an operator fits no schedule"):
            if req.get("mode") == "exact":
                need(traffic <= sum(parts), "unfused traffic above the operators' optima")
            else:
                need(traffic == sum(parts),
                     "unfused traffic %d != sum of the operators' optima %d" % (traffic, sum(parts)))
    elif op == "chain":
        if res.get("decision") == "pairwise":
            need(sum(s["traffic"] for s in res["segments"]) == res["traffic"],
                 "pairwise traffic != sum of segments")
    elif op == "nest":
        axes, extents, tensors = nest_spec(req)
        need(res["axes"] == axes, "axes")
        need(res["extents"] == extents, "extents %s != %s" % (res["extents"], extents))
        tiles = res["tiles"]
        if not need(len(tiles) == len(extents)
                    and all(1 <= x <= e for x, e in zip(tiles, extents)), "tile out of range"):
            return problems
        need(res["points"] == math.prod(extents), "points")
        fp = conv_footprint(req, tiles) if tensors is None else nest_footprint(tiles, tensors)
        need(res["footprint"] == fp, "footprint %s != recount %d" % (res["footprint"], fp))
        need(fp <= cap, "footprint over capacity")
        if req["kind"] in ("matmul", "batched_mm"):
            order = [axes.index(a) for a in res["order"]]
            need(sorted(order) == list(range(len(axes))), "order not a permutation")
            cost = nest_traffic(extents, tensors, tiles, order)
            need(cost == res["traffic"], "traffic %s != recount %d" % (res["traffic"], cost))
            lat = nest_lattice(req.get("mode", "divisors"))
            if req["kind"] == "matmul":
                best = mm_min(*extents, lat, cap)
            else:
                best = scan_min(extents, tensors, lat, cap)
            need(best is not None and res["traffic"] <= best, "lattice holds a cheaper schedule")
    elif op == "plan_model":
        layers = req["layers"]
        names = ["L%d.%s" % (i, n) for i in range(layers)
                 for n in ("wq", "wk", "wv", "attention", "wo", "ffn")]
        members = [n for g in res["groups"] for n in g["members"]]
        need(res["nodes"] == len(names), "node count")
        need(sorted(members) == sorted(names), "groups do not cover every node exactly once")
        need(res["group_count"] == len(res["groups"]), "group_count")
        need(sum(g["traffic"] for g in res["groups"]) == res["traffic"], "traffic != sum of groups")
        need(sum(g["hidden"] for g in res["groups"]) == res["hidden"], "hidden != sum of groups")
        need(res["traffic"] <= res["unfused_traffic"], "traffic above unfused")
        need(res["effective"] == res["traffic"] - res["hidden"], "effective != traffic - hidden")
    elif op == "eval":
        macs = model_macs(req["model"])
        elt = req.get("elt_bytes", 1)
        for p in res["platforms"]:
            if not need("macs" in p, "platform %s failed" % p.get("name")):
                continue
            need(p["macs"] == macs, "%s macs %s != %d" % (p["name"], p["macs"], macs))
            need(0.0 < p["utilization"] <= 1.0, "%s utilization" % p["name"])
            need(p["traffic_bytes"] == p["traffic"] * elt, "%s traffic_bytes" % p["name"])
            need(p["traffic"] > 0 and p["cycles"] > 0, "%s traffic/cycles" % p["name"])
    return problems
