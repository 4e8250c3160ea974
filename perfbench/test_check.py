"""Tests of the independent answer checker on hand-computed cases.

Run: python3 perfbench/test_check.py
"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import gen  # noqa: E402


def intra_resp(req, tiles, order, ma, footprint, redundancy=1.0):
    res = {"m": req["m"], "k": req["k"], "l": req["l"], "buffer_bytes": req["buffer"],
           "ma": ma, "redundancy": redundancy, "footprint": footprint,
           "tiles": dict(zip("mkl", tiles)), "order": order}
    return {"ok": True, "op": "intra", "result": res}


class Lattices(unittest.TestCase):
    def test_divisors(self):
        self.assertEqual(check.divisors(12), [1, 2, 3, 4, 6, 12])
        self.assertEqual(check.divisors(1), [1])
        self.assertEqual(check.divisors(49), [1, 7, 49])

    def test_pow2_includes_dimension(self):
        self.assertEqual(check.candidates("pow2", 12), [1, 2, 4, 8, 12])
        self.assertEqual(check.candidates("pow2", 16), [1, 2, 4, 8, 16])


class MatmulCost(unittest.TestCase):
    # 1024x768x768, tiles (512, 768, 1), order K M L: by hand,
    # trips M=2 K=1 L=768; A (M,K) is never revisited: 786432;
    # B (K,L) free in M, M outside L: 2 x 589824; C (M,L) free in K,
    # K untiled: 786432.  Total 2752512, footprint 512*768+768+512.
    def test_hand_case(self):
        ma = check.nest_traffic([1024, 768, 768], check.MM_TENSORS, [512, 768, 1], [1, 0, 2])
        self.assertEqual(ma, 786432 + 2 * 589824 + 786432)
        self.assertEqual(check.nest_footprint([512, 768, 1], check.MM_TENSORS), 394496)

    def test_ragged_tiles(self):
        # 10x1x10, tiles (3,1,3), order M K L: trips 4,1,4.
        # A (M,K): used M tiled at pos 0 -> p*=0; free L at pos 2 > 0 -> 1 x 10
        # B (K,L): used L at pos 2; free M at pos 0 < 2 -> 4 x 10
        # C (M,L): p*=2; free K untiled -> 1 x 100
        self.assertEqual(
            check.nest_traffic([10, 1, 10], check.MM_TENSORS, [3, 1, 3], [0, 1, 2]), 150)

    def test_closed_form_minimum_matches_scan(self):
        rng = random.Random(7)
        for _ in range(300):
            dims = [rng.randint(1, 40) for _ in range(3)]
            cap = rng.randint(3, 600)
            for lat in ("divisors", "pow2", "all"):
                self.assertEqual(check.mm_min(*dims, lat, cap),
                                 check.scan_min(dims, check.MM_TENSORS, lat, cap),
                                 (dims, cap, lat))

    def test_infeasible(self):
        self.assertIsNone(check.mm_min(4, 4, 4, "divisors", 2))


class IntraCheck(unittest.TestCase):
    req = {"op": "intra", "m": 1024, "k": 768, "l": 768, "buffer": 524288,
           "elt_bytes": 1, "mode": "divisors"}

    def test_accepts_optimum(self):
        resp = intra_resp(self.req, (512, 768, 1), ["K", "M", "L"], 2752512, 394496, 1.27)
        self.assertEqual(check.check(self.req, resp), [])

    def test_rejects_wrong_count(self):
        resp = intra_resp(self.req, (512, 768, 1), ["K", "M", "L"], 2752511, 394496, 1.27)
        self.assertTrue(any("recount" in p for p in check.check(self.req, resp)))

    def test_rejects_non_optimal(self):
        # a valid but worse schedule: tiles (1,1,1), order M K L
        ma = check.nest_traffic([1024, 768, 768], check.MM_TENSORS, [1, 1, 1], [0, 1, 2])
        resp = intra_resp(self.req, (1, 1, 1), ["M", "K", "L"], ma, 3, ma / 2162688)
        self.assertTrue(any("cheaper" in p for p in check.check(self.req, resp)))

    def test_detects_wrapped_overflow(self):
        # the daemon's answer for 4194304^3 at pow2 / 1MB: 63-bit arithmetic
        # wrapped to a negative count.  Exact arithmetic does not.
        req = {"op": "intra", "m": 4194304, "k": 4194304, "l": 4194304, "buffer": 1048576,
               "elt_bytes": 1, "mode": "pow2"}
        resp = intra_resp(req, (16, 1, 32768), ["M", "K", "L"], -4611668426241343488,
                          557072, -87381.0)
        true_ma = check.nest_traffic([1 << 22] * 3, check.MM_TENSORS, [16, 1, 32768], [0, 1, 2])
        self.assertGreater(true_ma, 2 ** 62)
        problems = check.check(req, resp)
        self.assertTrue(any("recount" in p for p in problems))
        self.assertTrue(any("compulsory" in p for p in problems))

    def test_footprint_over_capacity(self):
        req = dict(self.req, buffer=1000)
        resp = intra_resp(req, (512, 768, 1), ["K", "M", "L"], 2752512, 394496)
        self.assertTrue(any("capacity" in p for p in check.check(req, resp)))


class FuseCheck(unittest.TestCase):
    req = {"op": "fuse", "m": 64, "k": 32, "l": 48, "l2": 16, "buffer": 256,
           "elt_bytes": 1, "mode": "divisors"}

    def resp(self, traffic):
        return {"ok": True, "op": "fuse", "result": {
            "m": 64, "k": 32, "l": 48, "l2": 16, "buffer_bytes": 256, "fuse": False,
            "traffic": traffic}}

    def test_unfused_traffic_is_the_sum_of_both_optima(self):
        best = (check.mm_min(64, 32, 48, "divisors", 256)
                + check.mm_min(64, 48, 16, "divisors", 256))
        self.assertEqual(check.check(self.req, self.resp(best)), [])
        self.assertTrue(check.check(self.req, self.resp(best + 1)))
        # a value that wrapped back into range is still caught
        self.assertTrue(check.check(self.req, self.resp(best - 2 ** 63 + 2 ** 64)))


class NestCheck(unittest.TestCase):
    def test_conv_footprint_and_compulsory(self):
        # 1x1 conv c=64 14x14 k=128: tiles (1,1,14,14,64,1,1) hold the
        # whole input (12544) + one filter (64) + one output plane (196)
        req = {"op": "nest", "kind": "conv2d", "n": 1, "c": 64, "h": 14, "w": 14, "k": 128,
               "r": 1, "s": 1, "stride": 1, "padding": 0, "buffer": 16384}
        self.assertEqual(check.conv_footprint(req, [1, 1, 14, 14, 64, 1, 1]), 12804)
        self.assertEqual(check.compulsory(req), 64 * 196 + 128 * 64 + 128 * 196)

    def test_strided_conv_touches_fewer_inputs(self):
        # 1x1 kernel, stride 2 on 6x6: only rows/cols 0, 2, 4 are read
        req = {"op": "nest", "kind": "conv2d", "n": 1, "c": 1, "h": 6, "w": 6, "k": 1,
               "r": 1, "s": 1, "stride": 2, "padding": 0, "buffer": 64}
        self.assertEqual(check.compulsory(req), 9 + 1 + 9)

    def test_padding_is_not_compulsory(self):
        # 3x3 pad 1 on 4x4: every real input element read, none of the pad
        req = {"op": "nest", "kind": "conv2d", "n": 1, "c": 1, "h": 4, "w": 4, "k": 1,
               "r": 3, "s": 3, "stride": 1, "padding": 1, "buffer": 64}
        self.assertEqual(check.compulsory(req), 16 + 9 + 16)

    def test_batched_mm_golden_answer(self):
        # golden fixture id 109: b=3 m=4 k=5 l=6 at 48 elements
        req = {"op": "nest", "kind": "batched_mm", "b": 3, "m": 4, "k": 5, "l": 6,
               "buffer": 48, "mode": "divisors"}
        resp = {"ok": True, "op": "nest", "result": {
            "kind": "batched_mm", "b": 3, "m": 4, "k": 5, "l": 6, "buffer_bytes": 48,
            "axes": ["b", "m", "k", "l"], "extents": [3, 4, 5, 6], "tiles": [1, 1, 5, 6],
            "order": ["b", "m", "k", "l"], "traffic": 222, "ideal": 222, "footprint": 41,
            "points": 360, "evaluated": 72}}
        self.assertEqual(check.check(req, resp), [])
        bad = dict(resp, result=dict(resp["result"], traffic=221))
        self.assertTrue(check.check(req, bad))

    def test_attention_counts_internal_scores_in_footprint_only(self):
        req = {"op": "nest", "kind": "attention", "seq_q": 256, "seq_k": 256, "d": 64,
               "dv": 64, "buffer": 65536}
        _, _, tensors = check.nest_spec(req)
        self.assertEqual(check.nest_footprint([1, 256, 64, 64], tensors), 33152)
        self.assertEqual(check.compulsory(req), 4 * 256 * 64)


class ModelCheck(unittest.TestCase):
    def test_bert_macs(self):
        # golden fixture id 22
        self.assertEqual(check.model_macs("bert"), 141733920768)

    def test_plan_model_cover(self):
        req = {"op": "plan_model", "model": "bert", "layers": 1, "buffer": 524288}
        groups = [{"members": ["L0." + n], "count": 1, "ops": 1, "traffic": 10, "hidden": 2}
                  for n in ("wq", "wk", "wv", "attention", "wo", "ffn")]
        big = check.model_compulsory("bert", 1)
        groups[0]["traffic"] = big
        res = {"model": "bert", "layers": 1, "buffer_bytes": 524288, "nodes": 6,
               "group_count": 6, "groups": groups, "traffic": big + 50, "hidden": 12,
               "effective": big + 38, "unfused_traffic": big + 50}
        resp = {"ok": True, "op": "plan_model", "result": res}
        self.assertEqual(check.check(req, resp), [])
        groups[1]["members"] = ["L0.wq"]
        self.assertTrue(any("cover" in p for p in check.check(req, resp)))


class Generators(unittest.TestCase):
    def test_same_seed_same_requests(self):
        a = gen.mm_cold_round(3, 0, gen.Distinct())
        b = gen.mm_cold_round(3, 0, gen.Distinct())
        self.assertEqual(a, b)
        self.assertNotEqual(a, gen.mm_cold_round(4, 0, gen.Distinct()))

    def test_fault_inputs_ignore_the_seed(self):
        a = [q for q in gen.mm_cold_round(1, 5, gen.Distinct()) if "_fault" in q]
        b = [q for q in gen.mm_cold_round(2, 5, gen.Distinct()) if "_fault" in q]
        self.assertEqual(a, b)
        self.assertEqual(len(a), 1)

    def test_cold_keys_distinct(self):
        d = gen.Distinct()
        keys = [q["_key"] for r in range(40) for q in gen.mm_cold_round(9, r, d)]
        self.assertEqual(len(keys), len(set(keys)))


if __name__ == "__main__":
    unittest.main()
