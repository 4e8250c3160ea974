(* In-process traced replay of one benchmark run.

   Reads the request lines the daemon was sent and the responses it
   gave, then handles the same requests three times in this process, in
   the daemon's order (parse -> canonicalize + key -> cache -> compute
   -> cache insert + store append -> encode), calling each layer
   through its public entry point:

   - pass 0, untraced: warm-up (process-wide memo tables fill here);
   - pass 1, untraced: per-request handling time, GC counters and the
     baseline wall time;
   - pass 2, traced: a span (name, start, end, parent, request) around
     every layer call, kept in memory and written out at the end.

   [compute] mirrors [Fusecu_service.Engine.compute] under the default
   [bnb] mapper; both passes must reproduce the daemon's responses byte
   for byte.  Per-call costs that cannot be timed from outside a layer
   (one [Cost.eval] or [Nest.eval] inside a mapper, [Bound.penalized],
   the lattice sizes behind the explored ratios) are measured by probes
   that run after each request, outside its spans and outside the
   timed replay.

   Usage: trace.exe --lines F --expected F --seq F --store F
            [--warm] --cache-entries N --spans OUT --handle OUT
   Prints the per-layer table on stderr and one JSON object on stdout. *)

open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core
open Fusecu_dse
open Fusecu_util
module Protocol = Fusecu_service.Protocol
module Cache = Fusecu_service.Cache
module Store = Fusecu_service.Store
module Nest = Fusecu_nest.Nest
module Lower = Fusecu_nest.Lower
module Bound = Fusecu_nest.Bound
module Search = Fusecu_nest.Search
module Partition = Fusecu_planner.Partition
module Pgroup = Fusecu_planner.Group
module Wgraph = Fusecu_workloads.Graph

let now () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let tracing = ref false

let max_kept_spans = 200_000

type frame = { id : int; fstart : int; mutable child : int }

type kept = { kname : string; kstart : int; kstop : int; kid : int; kparent : int; kreq : int }

let stack : frame list ref = ref []

let next_id = ref 0

let current_req = ref 0

let kept : kept list ref = ref []

let n_kept = ref 0

(* per span name: calls, total ns, self ns *)
let agg : (string, int array) Hashtbl.t = Hashtbl.create 64

let agg_of name =
  match Hashtbl.find_opt agg name with
  | Some a -> a
  | None ->
    let a = [| 0; 0; 0 |] in
    Hashtbl.replace agg name a;
    a

let span name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let fr = { id = !next_id; fstart = now (); child = 0 } in
    let parent = match !stack with p :: _ -> p.id | [] -> 0 in
    stack := fr :: !stack;
    let finish () =
      let stop = now () in
      stack := List.tl !stack;
      let dur = stop - fr.fstart in
      (match !stack with p :: _ -> p.child <- p.child + dur | [] -> ());
      let a = agg_of name in
      a.(0) <- a.(0) + 1;
      a.(1) <- a.(1) + dur;
      a.(2) <- a.(2) + dur - fr.child;
      if !n_kept < max_kept_spans then begin
        incr n_kept;
        kept :=
          { kname = name; kstart = fr.fstart; kstop = stop; kid = fr.id; kparent = parent;
            kreq = !current_req }
          :: !kept
      end
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let calls name = match Hashtbl.find_opt agg name with Some a -> a.(0) | None -> 0

let total_ns name = match Hashtbl.find_opt agg name with Some a -> a.(1) | None -> 0

(* counters, recorded in the traced pass only *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let count name v =
  if !tracing then
    Hashtbl.replace counters name
      (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.

(* Probes run after the request that queued them, outside its spans. *)
let probes : (unit -> unit) list ref = ref []

let probe f = if !tracing then probes := f :: !probes

(* mean ns per call of [f], over enough calls to see past the clock *)
let ns_per_call f =
  let reps = ref 0 and t0 = now () in
  while now () - t0 < 200_000 || !reps < 8 do
    ignore (Sys.opaque_identity (f ()));
    incr reps
  done;
  float_of_int (now () - t0) /. float_of_int !reps

(* ------------------------------------------------------------------ *)
(* The engine's compute, layer by layer                                 *)

let refine_lattice = function
  | Mode.Exact | Mode.Divisors -> Space.Divisors
  | Mode.Pow2 -> Space.Pow2

let refine_intra ~mode buffer (plan : Intra.plan) =
  let lattice = refine_lattice mode in
  let r, st =
    span "dse.bnb" (fun () ->
        Bnb.search_with_stats ~lattice ~seed:plan.Intra.schedule plan.Intra.op buffer)
  in
  count "dse.bnb_explored" (float_of_int st.Bnb.explored);
  count "dse.bnb_nodes" (float_of_int st.Bnb.nodes);
  let op = plan.Intra.op and sched = plan.Intra.schedule in
  probe (fun () ->
      count "dse.bnb_space" (float_of_int (Space.size lattice op buffer));
      count "loopnest.cost_eval_ns" (ns_per_call (fun () -> Cost.eval op sched));
      count "loopnest.cost_eval_probes" 1.);
  match r with
  | Some r when r.Exhaustive.cost.Cost.total < plan.Intra.cost.Cost.total ->
    { plan with
      schedule = r.Exhaustive.schedule;
      cost = r.Exhaustive.cost;
      dataflow = Nra.classify plan.Intra.op r.Exhaustive.schedule }
  | _ -> plan

let refine_fused ~mode pair buffer ~fused ~traffic =
  let r, st =
    span "dse.bnb_fused" (fun () ->
        Bnb.search_fused_with_stats ~lattice:(refine_lattice mode) ~seed:fused pair buffer)
  in
  count "dse.bnb_fused_explored" (float_of_int st.Bnb.explored);
  match r with
  | Some r when r.Fused_search.traffic < traffic -> (r.Fused_search.fused, r.Fused_search.traffic)
  | _ -> (fused, traffic)

let principles ~mode op buffer =
  span "core.principles" (fun () -> Intra.optimize ~mode op buffer)

let refine_chain ~mode buffer (plan : Planner.plan) =
  let segments =
    List.map
      (function
        | Planner.Solo p -> Planner.Solo (refine_intra ~mode buffer p)
        | Planner.Fused_pair { pair; pattern; fused; traffic } ->
          let fused, traffic = refine_fused ~mode pair buffer ~fused ~traffic in
          Planner.Fused_pair { pair; pattern; fused; traffic })
      plan.Planner.segments
  in
  { Planner.segments; traffic = Arith.sum (List.map Planner.segment_traffic segments) }

let unknown_model model =
  Error
    ( Protocol.Unknown_model,
      Printf.sprintf "unknown model %S (try: %s)" model
        (String.concat ", "
           (List.map
              (fun (m : Fusecu_workloads.Model.t) -> String.lowercase_ascii m.name)
              Fusecu_workloads.Zoo.all)) )

(* Schedules in a nest's lattice: feasible tilings times the loop orders
   of their tiled axes (the space Search.exhaustive walks), counted
   without evaluating any of them. *)
let lattice_schedules nest lattice capacity =
  let space = Search.compile ~lattice nest ~capacity in
  let rank = Nest.rank nest in
  let cands = Array.init rank (Search.candidates space) in
  let tiles = Array.make rank 1 in
  let total = ref 0 in
  let rec go i =
    if i = rank then begin
      if Nest.footprint_tiles nest tiles <= capacity then begin
        let trips = Array.mapi (fun a t -> (nest.Nest.extents.(a) + t - 1) / t) tiles in
        total := !total + List.length (Search.orders space ~trips)
      end
    end
    else
      Array.iter
        (fun t ->
          tiles.(i) <- t;
          go (i + 1))
        cands.(i)
  in
  go 0;
  !total

let nest_probes nest lattice buffer (r : Search.result) =
  probe (fun () ->
      let s = r.Search.schedule in
      let trips = Array.init (Nest.rank nest) (fun i -> Nest.trips nest s i) in
      count "nest.eval_ns" (ns_per_call (fun () -> Nest.eval nest s));
      count "nest.penalized_ns" (ns_per_call (fun () -> Bound.penalized nest ~trips));
      count "nest.probes" 1.;
      count "dse.nest_lattice"
        (float_of_int (lattice_schedules nest lattice (Buffer.elements buffer))))

let compute (call : Protocol.call) :
    (Protocol.outcome, Protocol.error_code * string) result =
  match call with
  | Intra { op; buffer; mode } -> (
    match principles ~mode op buffer with
    | Ok plan ->
      let plan = refine_intra ~mode buffer plan in
      Ok (Protocol.R_intra (Protocol.intra_result_of_plan plan))
    | Error e -> Error (Protocol.Infeasible, e))
  | Fuse { op; l2; buffer; mode } -> (
    let op2 = Matmul.make ~name:"consumer" ~m:op.Matmul.m ~k:op.Matmul.l ~l:l2 () in
    let pair = Fused.make_pair_exn op op2 in
    match span "core.fusion" (fun () -> Fusion.plan_pair ~mode pair buffer) with
    | Error e -> Error (Protocol.Infeasible, e)
    | Ok (Fusion.Fuse { pattern; fused; traffic }) ->
      let fused, traffic = refine_fused ~mode pair buffer ~fused ~traffic in
      Ok
        (Protocol.R_fuse
           (Protocol.Fused { pattern; nra = Fusion.fused_nra pair fused; traffic }))
    | Ok (Fusion.No_fuse { plan1; plan2; traffic; why }) ->
      let plan1 = refine_intra ~mode buffer plan1 in
      let plan2 = refine_intra ~mode buffer plan2 in
      let traffic = min traffic (Intra.ma plan1 + Intra.ma plan2) in
      Ok
        (Protocol.R_fuse
           (Protocol.Not_fused
              { why;
                traffic;
                producer = Nra.class_of plan1.Intra.dataflow;
                consumer = Nra.class_of plan2.Intra.dataflow })))
  | Eval { model; buffer; elt_bytes; mode } -> (
    match Fusecu_workloads.Zoo.find model with
    | None -> unknown_model model
    | Some model ->
      let w = Fusecu_workloads.Workload.of_model model in
      let rows =
        span "arch.eval_workload" (fun () ->
            List.map
              (fun (p : Fusecu_arch.Platform.t) ->
                match
                  Fusecu_arch.Perf.eval_workload ~mode ~elt_bytes ~pool:Pool.sequential p
                    buffer w
                with
                | Ok e ->
                  { Protocol.platform = p.name;
                    cells =
                      Ok
                        { Protocol.traffic = e.traffic;
                          traffic_bytes = e.traffic_bytes;
                          macs = e.macs;
                          cycles = e.cycles;
                          utilization = e.utilization } }
                | Error e -> { Protocol.platform = p.name; cells = Error e })
              Fusecu_arch.Platform.all)
      in
      Ok (Protocol.R_eval rows))
  | Chain { m; ks; buffer; mode } -> (
    let chain = Chain.of_dims ~name:"chain" ~m ks in
    match span "core.multi_fusion" (fun () -> Multi_fusion.plan ~mode chain buffer) with
    | Error e -> Error (Protocol.Infeasible, e)
    | Ok (Multi_fusion.Full_fusion { traffic; _ }) ->
      Ok
        (Protocol.R_chain
           (Protocol.Full_fusion { traffic; fused_bound = Chain.ideal_ma_fused chain }))
    | Ok (Multi_fusion.Fallback plan) ->
      let plan = refine_chain ~mode buffer plan in
      let segments =
        List.map
          (function
            | Planner.Solo p -> Protocol.Solo_seg (Intra.ma p)
            | Planner.Fused_pair { pattern; traffic; _ } ->
              Protocol.Fused_seg (Fusion.pattern_name pattern, traffic))
          plan.Planner.segments
      in
      Ok (Protocol.R_chain (Protocol.Pairwise { traffic = plan.Planner.traffic; segments })))
  | Nest { kind; buffer; mode } -> (
    let nest =
      span "nest.lower" (fun () ->
          match kind with
          | Protocol.N_matmul { m; k; l } -> Lower.of_matmul (Matmul.make ~name:"nest" ~m ~k ~l ())
          | Protocol.N_conv2d cv -> Lower.of_conv cv
          | Protocol.N_batched_mm { b; m; k; l } -> Lower.batched_mm ~b ~m ~k ~l ()
          | Protocol.N_grouped_mm { groups; heads; m; k; l } ->
            Lower.grouped_mm ~groups ~heads ~m ~k ~l ()
          | Protocol.N_attention { seq_q; seq_k; d; dv } ->
            Lower.attention_pair ~seq_q ~seq_k ~d ~dv ())
    in
    let lattice =
      match mode with
      | Mode.Exact -> Search.All
      | Mode.Divisors -> Search.Divisors
      | Mode.Pow2 -> Search.Pow2
    in
    match span "dse.nest_bnb" (fun () -> Nest_bnb.search_with_stats ~lattice nest buffer) with
    | None, _ ->
      Error
        ( Protocol.Infeasible,
          Printf.sprintf
            "no feasible schedule: buffer (%d elements) cannot hold one tile per tensor"
            (Buffer.elements buffer) )
    | Some r, st ->
      count "dse.nest_bnb_evaluated" (float_of_int r.Search.evaluated);
      count "dse.nest_bnb_nodes" (float_of_int st.Bnb.nodes);
      nest_probes nest lattice buffer r;
      let s = r.Search.schedule in
      let ideal = span "nest.bound" (fun () -> Bound.ideal nest) in
      Ok
        (Protocol.R_nest
           { Protocol.n_axes = Array.to_list nest.Nest.axes;
             n_extents = Array.to_list nest.Nest.extents;
             n_tiles = Array.to_list s.Nest.tiles;
             n_order = List.map (fun i -> nest.Nest.axes.(i)) (Array.to_list s.Nest.order);
             n_traffic = r.Search.cost.Nest.total;
             n_ideal = ideal;
             n_footprint = Nest.footprint nest s;
             n_points = Nest.points nest;
             n_evaluated = r.Search.evaluated }))
  | Regime _ | Plan_model _ ->
    (* no workload sends regime; plan_model goes through [plan_model] *)
    Error (Protocol.Bad_request, "not replayed by [compute]")

(* ------------------------------------------------------------------ *)
(* Engine state: cache + store                                          *)

type state = { cache : Protocol.outcome Cache.t; store : Store.t }

let cache_insert st key outcome =
  span "cache.insert" (fun () -> Cache.add st.cache key outcome);
  span "store.append" (fun () -> Store.append st.store key outcome)

let find st key =
  let r = span "cache.find" (fun () -> Cache.find st.cache key) in
  count (if r = None then "cache.misses" else "cache.hits") 1.;
  r

(* Engine.plan_model_impl with the cache on: every group the partitioner
   prices is an intra / chain sub-call through the shared cache. *)
let plan_model st (call : Protocol.call) =
  match call with
  | Plan_model { model; layers; buffer; elt_bytes = _; mode } -> (
    match Fusecu_workloads.Zoo.find model with
    | None -> unknown_model model
    | Some m -> (
      let graph = Wgraph.stack (Wgraph.of_model m) ~layers in
      let evaluator chain =
        span "planner.group_eval" @@ fun () ->
        count "planner.group_evals" 1.;
        let ops = Chain.ops chain in
        let sub =
          match ops with
          | [ op ] -> Protocol.Intra { op; buffer; mode }
          | (first : Matmul.t) :: _ ->
            let ks = first.Matmul.k :: List.map (fun (o : Matmul.t) -> o.Matmul.l) ops in
            Protocol.Chain { m = first.Matmul.m; ks; buffer; mode }
          | [] -> assert false
        in
        let canonical, key =
          span "protocol.key" (fun () ->
              let c, _ = Protocol.canonicalize sub in
              (c, Protocol.cache_key c))
        in
        let outcome =
          match find st key with
          | Some outcome -> Ok outcome
          | None -> (
            match compute canonical with
            | Ok outcome ->
              cache_insert st key outcome;
              Ok outcome
            | Error (_, msg) -> Error msg)
        in
        match outcome with
        | Error e -> Error e
        | Ok (Protocol.R_intra r) -> Ok r.Protocol.ma
        | Ok (Protocol.R_chain (Protocol.Full_fusion { traffic; _ }))
        | Ok (Protocol.R_chain (Protocol.Pairwise { traffic; _ })) ->
          Ok traffic
        | Ok _ -> Error "plan_model: unexpected sub-call outcome"
      in
      let group_ns0 = total_ns "planner.group_eval" in
      let t0 = now () in
      let planned = span "planner.partition" (fun () -> Partition.plan ~evaluator graph buffer) in
      if !tracing then
        count "planner.self_ns"
          (float_of_int (now () - t0 - (total_ns "planner.group_eval" - group_ns0)));
      match planned with
      | Error e -> Error (Protocol.Infeasible, e)
      | Ok p ->
        let s = p.Partition.stats in
        count "planner.dp_states" (float_of_int s.Partition.dp_states);
        count "planner.bnb_nodes" (float_of_int s.Partition.bnb_nodes);
        count "planner.bnb_pruned" (float_of_int s.Partition.bnb_pruned);
        let name_of id = (Wgraph.find graph id).Wgraph.name in
        Ok
          (Protocol.R_plan_model
             { Protocol.nodes = List.length (Wgraph.nodes graph);
               plan_groups =
                 List.map
                   (fun (g : Partition.group) ->
                     { Protocol.members =
                         List.map (fun (n : Wgraph.node) -> n.Wgraph.name) g.Partition.members;
                       count = g.Partition.count;
                       ops =
                         List.fold_left (fun a n -> a + List.length (Pgroup.ops n)) 0
                           g.Partition.members;
                       group_traffic = g.Partition.traffic;
                       group_hidden = g.Partition.hidden })
                   p.Partition.groups;
               fused_edges =
                 List.map
                   (fun (e : Partition.edge) ->
                     Printf.sprintf "%s->%s" (name_of e.Partition.src) (name_of e.Partition.dst))
                   p.Partition.selected;
               traffic = p.Partition.traffic;
               hidden = p.Partition.hidden;
               effective = p.Partition.effective;
               unfused_traffic = p.Partition.unfused_traffic;
               unfused_effective = p.Partition.unfused_effective;
               candidate_edges = s.Partition.candidate_edges;
               components = s.Partition.components;
               dp_states = s.Partition.dp_states;
               bnb_nodes = s.Partition.bnb_nodes;
               bnb_pruned = s.Partition.bnb_pruned })))
  | _ -> Error (Protocol.Bad_request, "not a plan_model call")

(* One request line, as Engine.run handles it at --batch 1. *)
let handle st line =
  span "request" @@ fun () ->
  let respond ~id ~call result =
    span "protocol.encode" (fun () ->
        match result with
        | Ok outcome -> Protocol.response_ok ~id ~call outcome
        | Error (code, message) -> Protocol.response_error ~id ~code ~message)
  in
  match span "protocol.parse" (fun () -> Protocol.parse_line line) with
  | Error reject -> Protocol.reject_response reject
  | Ok (id, tc, Protocol.Call (Protocol.Plan_model _ as call)) ->
    let result = span "engine.plan_model" (fun () -> plan_model st call) in
    Protocol.with_tc tc (respond ~id ~call result)
  | Ok (id, tc, Protocol.Call call) ->
    let canonical, transform, key =
      span "protocol.key" (fun () ->
          let c, t = Protocol.canonicalize call in
          (c, t, Protocol.cache_key c))
    in
    let result =
      match find st key with
      | Some outcome -> Ok outcome
      | None ->
        let r = span ("engine." ^ Protocol.op_name canonical) (fun () -> compute canonical) in
        (match r with Ok o -> cache_insert st key o | Error _ -> ());
        r
    in
    let result = Result.map (Protocol.apply_transform transform) result in
    Protocol.with_tc tc (respond ~id ~call result)
  | Ok _ -> failwith "control requests are not replayed"

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      Array.of_list (List.rev acc)
  in
  go []

let open_state ~store_path ~warm ~cache_entries =
  if (not warm) && Sys.file_exists store_path then Sys.remove store_path;
  let t0 = now () in
  let store =
    match span "store.recover" (fun () -> Store.open_ ~path:store_path) with
    | Ok s -> s
    | Error e -> failwith ("store: " ^ e)
  in
  let recover_ns = now () - t0 in
  let cache = Cache.create ~shards:8 ~capacity:cache_entries () in
  List.iter (fun (k, o) -> Cache.add cache k o) (Store.recovered store).Store.entries;
  ({ cache; store }, recover_ns, (Store.recovered store).Store.records)

(* Returns (responses identical?, wall ns of the request loop, per-request ns,
   store recovery ns, records recovered). *)
let replay ~lines ~expected ~seq ~store_path ~warm ~cache_entries =
  let st, recover_ns, records = open_state ~store_path ~warm ~cache_entries in
  let n = Array.length seq in
  let handle_ns = Array.make n 0 in
  let identical = ref true in
  let wall = ref 0 in
  Array.iteri
    (fun j i ->
      current_req := j;
      let t0 = now () in
      let resp = handle st lines.(i) in
      let dt = now () - t0 in
      wall := !wall + dt;
      handle_ns.(j) <- dt;
      if resp <> expected.(i) then begin
        if !identical then
          Printf.eprintf "replay differs on request %d:\n  got  %s\n  want %s\n%!" j
            (String.sub resp 0 (min 400 (String.length resp)))
            (String.sub expected.(i) 0 (min 400 (String.length expected.(i))));
        identical := false
      end;
      let ps = List.rev !probes in
      probes := [];
      List.iter (fun p -> p ()) ps)
    seq;
  Store.close st.store;
  (!identical, !wall, handle_ns, recover_ns, records)

let write_spans path =
  let oc = open_out_bin path in
  List.iter
    (fun k ->
      Printf.fprintf oc
        "{\"name\":%S,\"id\":%d,\"parent\":%d,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        k.kname k.kid k.kparent k.kreq k.kstart k.kstop)
    (List.rev !kept);
  close_out oc

let () =
  let lines_f = ref "" and expected_f = ref "" and seq_f = ref "" and store_f = ref "" in
  let warm = ref false and cache_entries = ref 65536 in
  let spans_f = ref "" and handle_f = ref "" in
  Arg.parse
    [ ("--lines", Arg.Set_string lines_f, "FILE request lines");
      ("--expected", Arg.Set_string expected_f, "FILE the daemon's responses, one per line");
      ("--seq", Arg.Set_string seq_f, "FILE indices into --lines, in send order");
      ("--store", Arg.Set_string store_f, "FILE plan store to open");
      ("--warm", Arg.Set warm, " recover --store as it is (default: start it empty)");
      ("--cache-entries", Arg.Set_int cache_entries, "N plan cache capacity");
      ("--spans", Arg.Set_string spans_f, "FILE spans output (NDJSON)");
      ("--handle", Arg.Set_string handle_f, "FILE per-request handling time output (us)") ]
    (fun a -> raise (Arg.Bad a))
    "trace.exe: in-process traced replay of a benchmark run";
  let lines = read_lines !lines_f and expected = read_lines !expected_f in
  let seq = Array.map int_of_string (read_lines !seq_f) in
  let n = Array.length seq in
  let run () =
    replay ~lines ~expected ~seq ~store_path:!store_f ~warm:!warm
      ~cache_entries:!cache_entries
  in
  (* pass 0 fills process-wide memo tables, so neither timed pass pays
     for them alone *)
  let same0, _, _, _, _ = run () in
  (* pass 1: untraced *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let same1, wall1, handle_ns, _, _ = run () in
  let g1 = Gc.quick_stat () in
  (* pass 2: traced *)
  tracing := true;
  let same2, wall2, _, recover_ns, records = run () in
  tracing := false;
  write_spans !spans_f;
  let oc = open_out !handle_f in
  Array.iter (fun ns -> Printf.fprintf oc "%.3f\n" (float_of_int ns /. 1000.)) handle_ns;
  close_out oc;
  (* per-layer table *)
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) agg []) in
  Printf.eprintf "%-22s %9s %12s %12s %12s\n" "span" "calls" "total ms" "self ms" "mean us";
  List.iter
    (fun name ->
      let a = Hashtbl.find agg name in
      Printf.eprintf "%-22s %9d %12.2f %12.2f %12.2f\n" name a.(0)
        (float_of_int a.(1) /. 1e6) (float_of_int a.(2) /. 1e6)
        (float_of_int a.(1) /. 1e3 /. float_of_int (max 1 a.(0))))
    names;
  let mean_ns name = float_of_int (total_ns name) /. float_of_int (max 1 (calls name)) in
  let per name c = counter name /. max 1. (float_of_int (calls c)) in
  let ratio a b = if b > 0. then a /. b else 0. in
  let request_self = match Hashtbl.find_opt agg "request" with Some a -> a.(2) | None -> 0 in
  let plans = float_of_int (max 1 n) in
  let m u v = (u, v) in
  let metrics =
    [ ("protocol.parse_us", m "us" (mean_ns "protocol.parse" /. 1e3));
      ("protocol.key_us", m "us" (mean_ns "protocol.key" /. 1e3));
      ("protocol.encode_us", m "us" (mean_ns "protocol.encode" /. 1e3));
      ("cache.find_us", m "us" (mean_ns "cache.find" /. 1e3));
      ("cache.hit_ratio",
       m "ratio" (ratio (counter "cache.hits") (counter "cache.hits" +. counter "cache.misses")));
      ("store.recover_s", m "s" (float_of_int recover_ns /. 1e9));
      ("store.records", m "count" (float_of_int records));
      ("engine.intra_ms", m "ms" (mean_ns "engine.intra" /. 1e6));
      ("engine.fuse_ms", m "ms" (mean_ns "engine.fuse" /. 1e6));
      ("engine.chain_ms", m "ms" (mean_ns "engine.chain" /. 1e6));
      ("engine.nest_ms", m "ms" (mean_ns "engine.nest" /. 1e6));
      ("engine.plan_model_ms", m "ms" (mean_ns "engine.plan_model" /. 1e6));
      ("engine.eval_ms", m "ms" (mean_ns "engine.eval" /. 1e6));
      ("core.principles_us", m "us" (mean_ns "core.principles" /. 1e3));
      ("core.fusion_ms", m "ms" (mean_ns "core.fusion" /. 1e6));
      ("core.multi_fusion_ms", m "ms" (mean_ns "core.multi_fusion" /. 1e6));
      ("dse.bnb_ms", m "ms" (mean_ns "dse.bnb" /. 1e6));
      ("dse.bnb_explored", m "count" (per "dse.bnb_explored" "dse.bnb"));
      ("dse.bnb_nodes", m "count" (per "dse.bnb_nodes" "dse.bnb"));
      ("dse.bnb_explored_ratio",
       m "ratio" (ratio (counter "dse.bnb_explored") (counter "dse.bnb_space")));
      ("dse.bnb_fused_ms", m "ms" (mean_ns "dse.bnb_fused" /. 1e6));
      ("dse.bnb_fused_explored", m "count" (per "dse.bnb_fused_explored" "dse.bnb_fused"));
      ("dse.nest_bnb_ms", m "ms" (mean_ns "dse.nest_bnb" /. 1e6));
      ("dse.nest_bnb_evaluated", m "count" (per "dse.nest_bnb_evaluated" "dse.nest_bnb"));
      ("dse.nest_bnb_explored_ratio",
       m "ratio" (ratio (counter "dse.nest_bnb_evaluated") (counter "dse.nest_lattice")));
      ("loopnest.cost_eval_ns",
       m "ns" (ratio (counter "loopnest.cost_eval_ns") (counter "loopnest.cost_eval_probes")));
      ("nest.eval_ns", m "ns" (ratio (counter "nest.eval_ns") (counter "nest.probes")));
      ("nest.bound_us",
       m "us"
         ((mean_ns "nest.bound" +. ratio (counter "nest.penalized_ns") (counter "nest.probes"))
          /. 1e3));
      ("nest.lower_us", m "us" (mean_ns "nest.lower" /. 1e3));
      ("planner.partition_ms", m "ms" (mean_ns "planner.partition" /. 1e6));
      ("planner.self_ms", m "ms" (per "planner.self_ns" "planner.partition" /. 1e6));
      ("planner.group_evals", m "count" (per "planner.group_evals" "planner.partition"));
      ("planner.group_eval_ms", m "ms" (mean_ns "planner.group_eval" /. 1e6));
      ("planner.dp_states", m "count" (per "planner.dp_states" "planner.partition"));
      ("planner.bnb_nodes", m "count" (per "planner.bnb_nodes" "planner.partition"));
      ("planner.bnb_pruned", m "count" (per "planner.bnb_pruned" "planner.partition"));
      ("arch.eval_workload_ms", m "ms" (mean_ns "arch.eval_workload" /. 1e6));
      ("gc.minor_mb_per_plan",
       m "MB" ((g1.Gc.minor_words -. g0.Gc.minor_words) *. 8. /. 1e6 /. plans));
      ("gc.major_collections",
       m "count" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)));
      ("trace.overhead", m "ratio" (ratio (float_of_int wall2) (float_of_int wall1)));
      ("trace.coverage",
       m "ratio"
         (1. -. ratio (float_of_int request_self) (float_of_int (total_ns "request")))) ]
  in
  let json =
    Json.Obj
      [ ("identical", Json.Bool (same0 && same1 && same2));
        ("requests", Json.Int n);
        ("metrics",
         Json.Obj
           (List.map
              (fun (name, (unit, v)) ->
                (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
              metrics)) ]
  in
  print_endline (Json.print json)
