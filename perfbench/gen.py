"""Seeded request generators for the four benchmark workloads.

Every generator is a pure function of the seed and the round index, so
the same seed gives the same requests.  A round is a fixed template of
operation classes; on the cold workloads the seed perturbs dimensions and
picks buffers inside it (see the slot scheme below).  Requests are plain
dicts ready for ``json.dumps``; the benchmark-only fields (``_fault`` and
``_key``) are stripped before a request is sent.

``_key`` mirrors the daemon's canonical cache key (M<->L transpose for
``intra``, element-capacity buffers), so the cold workloads can promise
that no two requests share a key.
"""

import itertools
import math
import random

KB = 1024
MB = 1024 * 1024

# The model zoo (lib/workloads/zoo.ml): name -> (heads, kv_heads, seq, hidden).
# Batch 16 and FFN expansion 4 throughout.
ZOO = {
    "bert": (12, 12, 1024, 768),
    "gpt-2": (12, 12, 2048, 768),
    "blenderbot": (16, 16, 256, 1024),
    "xlm": (16, 16, 1024, 2048),
    "deberta-v2": (24, 24, 1024, 1536),
    "llama2": (32, 32, 4096, 4096),
    "albert": (64, 64, 1024, 4096),
}
BATCH = 16
FFN_MULT = 4

MODES = ("divisors", "pow2", "exact")


def zoo_ops(model):
    """Per-layer (m, k, l) operators of one zoo model, as Workload.of_model builds them."""
    heads, kv, seq, hidden = ZOO[model]
    bs = BATCH * seq
    dh = hidden // heads
    ffn = FFN_MULT * hidden
    return {
        "wq": (bs, hidden, hidden),
        "wk": (bs, hidden, kv * dh),
        "wv": (bs, hidden, kv * dh),
        "qk": (seq, dh, seq),
        "sv": (seq, seq, dh),
        "wo": (bs, hidden, hidden),
        "ff1": (bs, hidden, ffn),
        "ff2": (bs, ffn, hidden),
    }


def _mm_shapes():
    """Every distinct per-layer operator of the zoo, plus LLaMA2-7B's 11008-wide FFN."""
    shapes = set()
    for model in ZOO:
        shapes.update(zoo_ops(model).values())
    bs = BATCH * ZOO["llama2"][2]
    shapes.add((bs, 4096, 11008))
    shapes.add((bs, 11008, 4096))
    return sorted(shapes)


MM_SHAPES = _mm_shapes()

# Fusable producer/consumer pairs (m, k, l, l2) and chains (m, ks) of the zoo.
def _pairs_and_chains():
    pairs, chains = set(), set()
    for model in ZOO:
        heads, kv, seq, hidden = ZOO[model]
        bs = BATCH * seq
        dh = hidden // heads
        ffn = FFN_MULT * hidden
        pairs.add((bs, hidden, ffn, hidden))
        pairs.add((seq, dh, seq, dh))
        pairs.add((bs, hidden, hidden, ffn))
        chains.add((bs, (hidden, ffn, hidden)))
        chains.add((seq, (dh, seq, dh)))
        chains.add((bs, (hidden, hidden, ffn, hidden)))
    bs = BATCH * ZOO["llama2"][2]
    pairs.add((bs, 4096, 11008, 4096))
    chains.add((bs, (4096, 11008, 4096)))
    return sorted(pairs), sorted(chains)


MM_PAIRS, MM_CHAINS = _pairs_and_chains()


def perturb(rng, d, quantum=16):
    """A seeded perturbation of a dimension: scaled by 0.5..1.5, kept a
    multiple of ``quantum`` (so the divisor lattice stays realistic)."""
    if d <= quantum:
        return max(1, int(round(d * rng.uniform(0.5, 1.5))))
    v = int(round(d * rng.uniform(0.5, 1.5) / quantum)) * quantum
    return max(quantum, v)


STRATA = 4


def stratified_bytes(rng, lo, hi, stratum, align=256):
    """Log-uniform in the stratum-th of STRATA equal slices of [lo, hi]
    (log scale): slots cycle through the strata, so every run covers the
    whole buffer range in the same proportions."""
    u = (stratum % STRATA + rng.random()) / STRATA
    v = int(round(lo * (hi / lo) ** u / align)) * align
    return min(hi, max(lo, v))


def elements(buffer_bytes, elt_bytes):
    return buffer_bytes // elt_bytes


def canonical_key(req):
    """The daemon's cache key of a request, up to renaming (Protocol.cache_key)."""
    op = req["op"]
    mode = req.get("mode", "divisors")
    elt = req.get("elt_bytes", 1)
    buf = req["buffer"]
    el = elements(buf, elt)
    if op == "intra":
        m, k, l = req["m"], req["k"], req["l"]
        if m > l:
            m, l = l, m
        return ("i", mode, m, k, l, el)
    if op == "fuse":
        return ("f", mode, req["m"], req["k"], req["l"], req["l2"], el)
    if op == "chain":
        return ("c", mode, req["m"], tuple(req["ks"]), el)
    if op == "nest":
        dims = tuple(sorted((k, v) for k, v in req.items()
                            if isinstance(v, int) and k not in ("buffer", "elt_bytes", "id")))
        return ("n", mode, req["kind"], dims, el)
    if op == "eval":
        return ("e", mode, req["model"], buf, elt)
    if op == "plan_model":
        return ("pm", mode, req["model"], req["layers"], buf, elt)
    raise ValueError(op)


class Distinct:
    """Draws requests until each has a canonical key not seen before."""

    def __init__(self):
        self.seen = set()

    def take(self, rng, draw, tries=1000):
        for _ in range(tries):
            req = draw(rng)
            key = canonical_key(req)
            if key not in self.seen:
                self.seen.add(key)
                req["_key"] = key
                return req
        raise RuntimeError("could not draw a distinct request")


def _round_rng(seed, workload, r):
    return random.Random(f"{workload}:{seed}:{r}")


# ---------------------------------------------------------------- mm_cold
#
# Slot scheme: the i-th request of a class in a run takes its shape, its
# lattice mode and its buffer stratum from i, and only the perturbation of
# the dimensions and the buffer within its stratum from the seed.  A
# different seed changes the problems without changing the mix.
#
# Consecutive slots stride across the size-sorted shape list and rotate
# through the (mode, stratum) pairs, so every round is a spread sample of
# the whole mix.  A run ends after however many rounds fit its window; if
# a round covered only a stretch of similar shapes, where that count
# stopped in the cycle would move the latency distribution.

MM_ROUND = ["intra"] * 30 + ["fuse"] * 12 + ["chain"] * 7  # + 1 overflow = 50

# Exact-mode fuse and chain misses run from 0.1 to several seconds on
# zoo-sized shapes, a tail no 20 s window samples steadily; they stay
# out, and intra carries the exact lattice mode.
FUSED_MODES = ("divisors", "pow2")


def _stride(n):
    """A step coprime to n near n / golden ratio."""
    s = max(1, round(n * 0.618))
    while math.gcd(s, n) != 1:
        s += 1
    return s


def _spread(index, n, pairs):
    """(item, pair) of the index-th slot over n items and `pairs` settings.

    Slot q * n + j takes item j * stride mod n and setting (q + j) mod
    pairs, so every n * pairs slots send each (item, setting) once."""
    q, j = divmod(index, n)
    return (j * _stride(n)) % n, (q + j) % pairs


def _slot(index, shapes, modes):
    """(shape, mode, buffer stratum) of the index-th slot of a class."""
    i, c = _spread(index, len(shapes), len(modes) * STRATA)
    return shapes[i], modes[c % len(modes)], (c // len(modes)) % STRATA


def _mm_request(rng, op, dims, mode, stratum):
    req = {"op": op}
    req.update(dims)
    req.update({"buffer": stratified_bytes(rng, 4 * KB, 8 * MB, stratum),
                "elt_bytes": rng.choice((1, 1, 2)), "mode": mode})
    return req


def draw_intra(rng, index):
    (m, k, l), mode, stratum = _slot(index, MM_SHAPES, MODES)
    dims = {"m": perturb(rng, m), "k": perturb(rng, k), "l": perturb(rng, l)}
    return _mm_request(rng, "intra", dims, mode, stratum)


def draw_fuse(rng, index):
    (m, k, l, l2), mode, stratum = _slot(index, MM_PAIRS, FUSED_MODES)
    dims = {"m": perturb(rng, m), "k": perturb(rng, k), "l": perturb(rng, l),
            "l2": perturb(rng, l2)}
    return _mm_request(rng, "fuse", dims, mode, stratum)


def draw_chain(rng, index):
    (m, ks), mode, stratum = _slot(index, MM_CHAINS, FUSED_MODES)
    dims = {"m": perturb(rng, m), "ks": [perturb(rng, k) for k in ks]}
    return _mm_request(rng, "chain", dims, mode, stratum)


MM_DRAW = {"intra": draw_intra, "fuse": draw_fuse, "chain": draw_chain}


def _round(rng, template, draw, r, distinct):
    """One round: the template's classes, each slot numbered per class."""
    per_round = {cls: template.count(cls) for cls in template}
    seen = dict.fromkeys(per_round, 0)
    reqs = []
    for cls in template:
        index = r * per_round[cls] + seen[cls]
        seen[cls] += 1
        reqs.append(distinct.take(rng, lambda rng: draw[cls](rng, index)))
    return reqs


# Known fault: power-of-two dimensions from 2^21 to 2^24 overflow the
# daemon's 63-bit cost arithmetic.  These inputs do not depend on the
# seed: round r sends OVERFLOW[r % len(OVERFLOW)].  They use the pow2
# lattice, where each costs 3 to 145 ms; under divisors or exact, fused
# ones run to a second and would dominate the workload.
def _overflow_cases():
    cases, seen = [], set()
    dims = [1 << e for e in (21, 22, 23, 24)]
    i = 0
    for buf in (64 * KB, 1 * MB, 8 * MB):
        for a, b, c in itertools.product(dims, dims, dims):
            op = ("intra", "fuse", "chain")[i % 3]
            i += 1
            if op == "intra":
                req = {"op": "intra", "m": a, "k": b, "l": c}
            elif op == "fuse":
                req = {"op": "fuse", "m": a, "k": b, "l": c, "l2": a}
            else:
                req = {"op": "chain", "m": a, "ks": [b, c, b]}
            req.update({"buffer": buf, "elt_bytes": 1, "mode": "pow2", "_fault": "overflow"})
            if canonical_key(req) not in seen:
                seen.add(canonical_key(req))
                cases.append(req)
    return cases


OVERFLOW = _overflow_cases()


def mm_cold_round(seed, r, distinct):
    reqs = _round(_round_rng(seed, "mm_cold", r), MM_ROUND, MM_DRAW, r, distinct)
    fault = dict(OVERFLOW[r % len(OVERFLOW)])
    fault["_key"] = canonical_key(fault)
    # the fixed fault sits at a fixed slot of the round
    reqs.insert(25, fault)
    return reqs


# ---------------------------------------------------------------- nest_cold

# Mostly convs, so the median request is a conv miss.
NEST_ROUND = (["conv3x3"] * 8 + ["conv3x3s2"] * 4 + ["conv7x7"] * 2 + ["conv1x1"] * 2
              + ["bmm"] * 2 + ["gqa"] + ["attention"])  # 20 requests

# Conv shapes (n, c, k, h=w) with the lattice modes they are sent in.
# The nest B&B's cost grows with the product of every axis' candidate
# count, so shapes and modes are kept where one miss costs about 5 to
# 100 ms on a 2-core host.
BOTH = ("divisors", "pow2")
DIV = ("divisors",)
CONV3X3 = [  # ResNet/VGG basic block: 3x3, stride 1, padding 1
    (1, 16, 16, 7, BOTH), (1, 16, 32, 7, DIV), (1, 32, 32, 7, BOTH), (1, 32, 16, 7, BOTH),
    (1, 64, 64, 7, BOTH), (1, 24, 24, 7, BOTH), (1, 32, 32, 4, BOTH), (1, 64, 32, 4, BOTH),
    (1, 128, 128, 4, BOTH), (1, 64, 64, 4, BOTH), (1, 32, 64, 7, DIV), (1, 16, 16, 8, BOTH),
    (1, 8, 16, 14, DIV), (2, 16, 16, 7, DIV)]
CONV3X3S2 = [  # ResNet downsampling / MobileNet strided 3x3, padding 1
    (1, 8, 16, 14, DIV), (1, 16, 32, 14, BOTH), (1, 16, 16, 16, DIV), (1, 32, 32, 8, BOTH),
    (1, 8, 32, 16, BOTH), (1, 32, 64, 8, BOTH), (1, 64, 64, 8, BOTH), (1, 16, 32, 7, BOTH)]
CONV7X7 = [  # ResNet stem: 7x7, stride 2, padding 3 on an RGB image
    (1, 3, 8, 32, DIV), (1, 3, 16, 32, DIV), (1, 3, 8, 24, DIV), (1, 3, 32, 16, BOTH),
    (1, 3, 16, 16, DIV), (1, 3, 64, 16, BOTH)]
CONV1X1 = [  # bottleneck / MobileNet pointwise
    (n, c, k, hw, BOTH) for n in (1, 2, 4) for c in (16, 32, 64, 96, 128)
    for k in (16, 32, 64, 128, 256) for hw in (7, 14, 28)]

def _nest_request(rng, kind, dims, mode, stratum):
    req = {"op": "nest", "kind": kind}
    req.update(dims)
    req.update({"buffer": stratified_bytes(rng, 4 * KB, 1 * MB, stratum), "elt_bytes": 1,
                "mode": mode})
    return req


def _conv_draw(catalogue, r, stride, padding):
    shapes = [(n, c, k, hw, mode) for (n, c, k, hw, modes) in catalogue for mode in modes]

    def draw(rng, index):
        i, stratum = _spread(index, len(shapes), STRATA)
        n, c, k, hw, mode = shapes[i]
        st = stride if r > 1 or index % 3 != 2 else 2  # a third of the 1x1s stride 2
        dims = {"n": n, "c": c, "h": hw, "w": hw, "k": k, "r": r, "s": r, "stride": st,
                "padding": padding}
        return _nest_request(rng, "conv2d", dims, mode, stratum)

    return draw


def draw_bmm(rng, index):
    dims = {"b": rng.choice((4, 8, 12, 16)), "m": rng.choice((32, 64, 96, 128, 256)),
            "k": rng.choice((32, 64, 128)), "l": rng.choice((32, 64, 96, 128, 256))}
    return _nest_request(rng, "batched_mm", dims, BOTH[index % 2], index // 2 % STRATA)


def draw_gqa(rng, index):
    dims = {"groups": rng.choice((2, 4, 8)), "heads": rng.choice((2, 4, 8)),
            "m": rng.choice((32, 64, 128)), "k": rng.choice((32, 64, 128)),
            "l": rng.choice((32, 64, 128))}
    return _nest_request(rng, "grouped_mm", dims, BOTH[index % 2], index // 2 % STRATA)


def draw_attention(rng, index):
    dims = {"seq_q": rng.choice((64, 128, 256, 512)), "seq_k": rng.choice((64, 128, 256, 512)),
            "d": rng.choice((32, 64, 128)), "dv": rng.choice((32, 64, 128))}
    return _nest_request(rng, "attention", dims, BOTH[index % 2], index // 2 % STRATA)


NEST_DRAW = {"conv3x3": _conv_draw(CONV3X3, 3, 1, 1), "conv3x3s2": _conv_draw(CONV3X3S2, 3, 2, 1),
             "conv7x7": _conv_draw(CONV7X7, 7, 2, 3), "conv1x1": _conv_draw(CONV1X1, 1, 1, 0),
             "bmm": draw_bmm, "gqa": draw_gqa, "attention": draw_attention}


def nest_cold_round(seed, r, distinct):
    return _round(_round_rng(seed, "nest_cold", r), NEST_ROUND, NEST_DRAW, r, distinct)


# ---------------------------------------------------------------- model_sweep

SWEEP_DEPTHS = (1, 2, 6, 12, 24, 48)


def model_sweep_round(seed, r, distinct, depths=SWEEP_DEPTHS):
    """One seeded (model, buffer) pair: plan_model at every depth, then one eval.

    Round r takes model r % 7, lattice mode r % 2 and buffer stratum
    (r // 2) % 4: every 56 rounds send each (model, mode, stratum) once,
    and any 8 consecutive rounds weigh the modes and strata alike.  The
    seed draws the buffer within its stratum."""
    rng = _round_rng(seed, "model_sweep", r)
    model = sorted(ZOO)[r % len(ZOO)]
    mode = ("divisors", "pow2")[r % 2]
    stratum = (r // 2) % STRATA

    def draw(rng):
        return {"op": "eval", "model": model, "elt_bytes": 1, "mode": mode,
                "buffer": stratified_bytes(rng, 64 * KB, 8 * MB, stratum, align=4 * KB)}

    ev = distinct.take(rng, draw)
    reqs = []
    for layers in depths:
        pm = {"op": "plan_model", "model": model, "layers": layers, "buffer": ev["buffer"],
              "elt_bytes": 1, "mode": mode}
        pm["_key"] = canonical_key(pm)
        distinct.seen.add(pm["_key"])
        reqs.append(pm)
    reqs.append(ev)
    return reqs


# ---------------------------------------------------------------- warm_restart

def warm_pool(seed):
    """A problem pool drawn like the three cold workloads, overflow cases
    left out."""
    d = Distinct()
    pool = []
    for r in range(6):
        pool.extend(q for q in mm_cold_round(seed, 1000 + r, d) if "_fault" not in q)
    for r in range(2):
        pool.extend(nest_cold_round(seed, 1000 + r, d))
    # plan_model is not cached whole (a repeat re-runs the partitioner
    # over cached groups), so only the sweep's eval requests join the pool
    for r in range(len(ZOO)):
        pool.extend(model_sweep_round(seed, 1000 + r, d, depths=()))
    return pool


WARM_ROUND = 50000  # hit requests per round; each round also sends one lone request


def zipf_order(seed, pool):
    """Rank the pool for the Zipf stream.  The class at each rank is fixed
    (classes interleaved in proportion to their share of the pool); the
    seed only picks which member of the class sits there, so the mix of
    response sizes near the head of the distribution does not move with
    the seed."""
    rng = random.Random(f"warm-rank:{seed}")
    buckets = {}
    for i, q in enumerate(pool):
        cls = q["op"] if q["op"] != "nest" else "nest." + q["kind"]
        buckets.setdefault(cls, []).append(i)
    for b in buckets.values():
        rng.shuffle(b)
    n = len(pool)
    credit = {c: 0.0 for c in buckets}
    order = []
    for _ in range(n):
        for c in sorted(buckets):
            credit[c] += len(buckets[c]) / n
        c = max((c for c in sorted(buckets) if buckets[c]), key=lambda c: credit[c])
        credit[c] -= 1.0
        order.append(buckets[c].pop())
    return order


def warm_stream_round(seed, r, order, s=1.1):
    """WARM_ROUND pool indices drawn from a Zipf(s) law over the ranks."""
    rng = random.Random(f"warm_restart:{seed}:{r}")
    weights = [1.0 / (i + 1) ** s for i in range(len(order))]
    cum, acc = [], 0.0
    for w in weights:
        acc += w
        cum.append(acc)
    return rng.choices(order, cum_weights=cum, k=WARM_ROUND)


# Known fault: a lone request to a daemon at the default batch size is
# answered only when the connection idles out.  Fixed inputs, one per round.
def lone_request(r):
    return {"op": "intra", "m": 256 + 16 * (r % 997), "k": 512, "l": 1024,
            "buffer": 256 * KB, "elt_bytes": 1, "mode": "divisors", "_fault": "lone"}


def wire(req, rid):
    """The request line sent to the daemon."""
    out = {"id": rid}
    out.update((k, v) for k, v in req.items() if not k.startswith("_"))
    return out
