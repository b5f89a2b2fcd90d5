module Dag = Wfc_dag.Dag
module Lin = Wfc_dag.Linearize
module FM = Wfc_platform.Failure_model
module Stats = Wfc_platform.Stats
module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module H = Wfc_core.Heuristics
module E = Wfc_core.Eval_engine
module Key = Wfc_core.Engine_key
module Schedule = Wfc_core.Schedule
module Evaluator = Wfc_core.Evaluator
module Driver = Wfc_resilience.Solver_driver
module MC = Wfc_simulator.Monte_carlo
module Server = Wfc_serve.Server
module Cache = Wfc_serve.Engine_cache
module Codec = Wfc_serve.Codec
module Pr = Wfc_serve.Protocol
module Metrics = Wfc_obs.Metrics
module Trace = Wfc_obs.Trace

type result = {
  metrics : (string * float * string) list;
  byte_mismatches : int list;
  replay_mismatches : int;
  report : string list;
}

let now = Unix.gettimeofday
let span name f = Trace.with_span ("bench." ^ name) f

(* ---- the replayed request path ------------------------------------------
   Mirrors Server.run_solve / run_simulate call for call on the paths the
   three workloads take (generated or inline specs; the heuristic tier, or
   the exact tier a deadline selects): the same layer functions with the
   same arguments, so the replayed reply must equal Server.handle's byte for
   byte. Any other request is answered "not replayed", which shows up in
   [replay_mismatches]. *)

type plan = Heuristic_tier | Exact_tier of int

let plan_of (p : Pr.solve_params) ~n =
  let cfg = Server.default_config in
  match p.Pr.deadline with
  | None -> Some Heuristic_tier
  | Some d ->
      let nodes = int_of_float (Float.min (d *. cfg.Server.nodes_per_second) 1e9) in
      if nodes >= 500 && n <= cfg.Server.exact_max_n then Some (Exact_tier nodes) else None

let not_replayed = Error "not replayed"

let dag_of_spec = function
  | Pr.Generated { family; n; seed; cost } ->
      span "pegasus.generate" (fun () -> Ok (CM.apply cost (P.generate family ~n ~seed)))
  | Pr.Inline { name; text; cost } ->
      span "workflow_io.load" (fun () ->
          Result.map (CM.ensure cost) (Wfc_io.Workflow_io.load_string ~path:name text))
  | Pr.File _ -> not_replayed

let with_engine cache (p : Pr.solve_params) model g ~order f =
  let key, taken =
    span "engine_cache.lookup" (fun () ->
        let key = Key.make p.Pr.backend model g ~order in
        (key, Cache.take cache key))
  in
  let h =
    match taken with
    | Some h -> h
    | None -> span "kernel.build" (fun () -> E.handle p.Pr.backend model g ~order)
  in
  Fun.protect ~finally:(fun () -> Cache.put cache key h) (fun () -> f h)

type solved = { solved : Pr.solved; sched : Schedule.t; g : Dag.t; model : FM.t; plan : plan }

let solve cache (p : Pr.solve_params) =
  Result.bind (dag_of_spec p.Pr.workflow) (fun g ->
      match plan_of p ~n:(Dag.n_tasks g) with
      | None -> not_replayed
      | Some plan ->
          let model = FM.of_mtbf ~mtbf:p.Pr.mtbf ~downtime:p.Pr.downtime () in
          let order = span "linearize" (fun () -> Lin.run p.Pr.lin g) in
          let search = if p.Pr.grid <= 0 then H.Exhaustive else H.Grid p.Pr.grid in
          let tier, evaluations, sched, makespan =
            match plan with
            | Heuristic_tier ->
                with_engine cache p model g ~order (fun engine ->
                    let o =
                      span "heuristics.run" (fun () ->
                          H.run ~search ~backend:p.Pr.backend ~engine model g ~lin:p.Pr.lin
                            ~ckpt:p.Pr.ckpt)
                    in
                    (Driver.tier_name Driver.Heuristic, o.H.evaluations, o.H.schedule, o.H.makespan))
            | Exact_tier nodes ->
                let config =
                  { Driver.default_config with Driver.max_nodes = nodes; search; backend = p.Pr.backend }
                in
                let r = span "solver_driver.solve" (fun () -> Driver.solve ~config model g ~order) in
                (Driver.tier_name r.Driver.tier, r.Driver.nodes, r.Driver.schedule, r.Driver.makespan)
          in
          let tinf = Evaluator.fail_free_time g in
          Ok
            {
              solved =
                {
                  Pr.source = Pr.spec_source p.Pr.workflow;
                  n_tasks = Dag.n_tasks g;
                  heuristic = H.name p.Pr.lin p.Pr.ckpt;
                  tier;
                  makespan;
                  ratio = (if tinf > 0. then makespan /. tinf else 1.);
                  n_ckpt = Schedule.checkpoint_count sched;
                  ckpt_tasks = Schedule.checkpointed_tasks sched;
                  evaluations;
                };
              sched;
              g;
              model;
              plan;
            })

let replay_handle cache = function
  | Pr.Solve p -> (
      match solve cache p with
      | Ok s -> (Pr.Solved s.solved, Some s)
      | Error m -> (Pr.Error { code = Pr.Bad_request; message = m }, None))
  | Pr.Simulate { params; runs; mcseed } -> (
      match solve cache params with
      | Ok s ->
          let est =
            span "monte_carlo.estimate" (fun () -> MC.estimate ~runs ~seed:mcseed s.model s.g s.sched)
          in
          let ci_lo, ci_hi = Stats.confidence95 est.MC.makespan in
          ( Pr.Simulated
              {
                Pr.solved = s.solved;
                runs;
                sim_mean = Stats.mean est.MC.makespan;
                ci_lo;
                ci_hi;
                failures_mean = Stats.mean est.MC.failures;
              },
            Some s )
      | Error m -> (Pr.Error { code = Pr.Bad_request; message = m }, None))
  | _ -> (Pr.Error { code = Pr.Bad_request; message = "not replayed" }, None)

(* One replayed request: decode the wire payload, run the server's path,
   report through the oracle, encode the reply. *)
let replay cache ~payload =
  span "request" (fun () ->
      match span "codec.decode" (fun () -> Codec.decode_request payload) with
      | Error m -> failwith ("replay: undecodable request: " ^ m)
      | Ok (id, req) ->
          let resp, s = span "handle" (fun () -> replay_handle cache req) in
          Option.iter
            (fun s ->
              span "evaluator.report" (fun () ->
                  ignore (Evaluator.expected_makespan s.model s.g s.sched)))
            s;
          let bytes = span "codec.encode" (fun () -> Codec.encode_response ~id resp) in
          (bytes, s))

(* ---- span arithmetic ----------------------------------------------------- *)

(* Events come sorted by (tid, ts, depth): parents before children. A stack
   per tid finds each span's parent; a child's duration is charged against
   its parent's self time. *)
let self_times events =
  let spans = List.filter (fun (e : Trace.event) -> e.Trace.kind = `Span) events in
  let tbl = Hashtbl.create 32 in
  let bump name ~total ~self =
    let c, t, s = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl name) in
    Hashtbl.replace tbl name (c + 1, t +. total, s +. self)
  in
  let selfs = Hashtbl.create 256 in
  let stack = ref [] in
  List.iteri
    (fun k (e : Trace.event) ->
      let rec pop () =
        match !stack with
        | (_, (p : Trace.event)) :: rest
          when p.Trace.tid <> e.Trace.tid || p.Trace.depth >= e.Trace.depth ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      Hashtbl.replace selfs k e.Trace.dur;
      (match !stack with
      | (pk, _) :: _ -> Hashtbl.replace selfs pk (Hashtbl.find selfs pk -. e.Trace.dur)
      | [] -> ());
      stack := (k, e) :: !stack)
    spans;
  List.iteri
    (fun k (e : Trace.event) -> bump e.Trace.name ~total:e.Trace.dur ~self:(Hashtbl.find selfs k))
    spans;
  Hashtbl.fold (fun name (c, t, s) acc -> (name, c, t, s) :: acc) tbl []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

(* The spans of the replayed requests: every bench.request root and its
   descendants (events are sorted parents-first, so a subtree runs until the
   next depth-0 span); the bench.plain subtrees are dropped. *)
let replayed events =
  let keep = ref false in
  List.filter
    (fun (e : Trace.event) ->
      if e.Trace.kind = `Span && e.Trace.depth = 0 then keep := e.Trace.name = "bench.request";
      !keep && e.Trace.kind = `Span)
    events

(* Sum span durations by name within each bench.request span. *)
let per_request events =
  let reqs = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.depth = 0 then reqs := Hashtbl.create 16 :: !reqs;
      match !reqs with
      | t :: _ ->
          Hashtbl.replace t e.Trace.name
            (e.Trace.dur +. Option.value ~default:0. (Hashtbl.find_opt t e.Trace.name))
      | [] -> ())
    (replayed events);
  List.rev !reqs

(* ---- the run ------------------------------------------------------------- *)

let counter name = Metrics.counter_value (Metrics.counter name)
let counters names = List.fold_left (fun acc n -> acc + counter n) 0 names

let run (w : Workload.t) ~daemon_payloads ~e2e_p50_ms ~trace_prefix =
  let total = w.Workload.traced_from + w.Workload.traced in
  let measured = float_of_int w.Workload.traced in
  let capacity = Server.default_config.Server.cache_size in
  (* The two passes are interleaved request by request, so both see the
     same heap and cache warmth. Tracing stays on throughout (re-enabling it
     restarts the trace epoch); the plain call runs under a bench.plain span
     with metrics off, and only bench.request subtrees feed the layer
     figures. *)
  let srv = Server.create () in
  let cache = Cache.create ~capacity in
  let handle_s = ref [] and minor = ref 0. and major = ref 0 in
  let mismatches = ref [] and replay_mismatches = ref 0 in
  let plan_counts = Hashtbl.create 4 and exact_answers = ref 0 and request_bytes = ref [] in
  let cache0 = ref (Cache.stats cache) in
  Metrics.set_enabled false;
  Trace.set_enabled true;
  for i = 0 to total - 1 do
    if i = w.Workload.traced_from then begin
      Metrics.reset ();
      Trace.reset ();
      cache0 := Cache.stats cache
    end;
    let measured_request = i >= w.Workload.traced_from in
    let req = w.Workload.request i in
    let payload = Codec.encode_request ~id:(Int64.of_int i) req in
    (* Server.handle, metrics off *)
    let plain_pass () =
      let g0 = Gc.quick_stat () in
      let t0 = now () in
      let resp = span "plain" (fun () -> Server.handle srv req) in
      let dt = now () -. t0 in
      let g1 = Gc.quick_stat () in
      if measured_request then begin
        handle_s := dt :: !handle_s;
        minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
        major := !major + (g1.Gc.major_collections - g0.Gc.major_collections)
      end;
      Codec.encode_response ~id:(Int64.of_int i) resp
    in
    (* the replay, metrics on *)
    let replay_pass () =
      Metrics.set_enabled true;
      Fun.protect ~finally:(fun () -> Metrics.set_enabled false) (fun () -> replay cache ~payload)
    in
    (* alternate which pass goes first, so neither always runs on the
       other's warm caches *)
    let plain, (bytes, s) =
      if i mod 2 = 0 then
        let p = plain_pass () in
        (p, replay_pass ())
      else
        let r = replay_pass () in
        (plain_pass (), r)
    in
    (match Hashtbl.find_opt daemon_payloads i with
    | Some d when d = plain -> ()
    | _ -> mismatches := i :: !mismatches);
    if bytes <> plain then incr replay_mismatches;
    if measured_request then begin
      request_bytes := float_of_int (String.length payload) :: !request_bytes;
      Option.iter
        (fun s ->
          let k = match s.plan with Heuristic_tier -> `H | Exact_tier _ -> `E in
          Hashtbl.replace plan_counts k (1 + Option.value ~default:0 (Hashtbl.find_opt plan_counts k));
          if k = `E && s.solved.Pr.tier = Driver.tier_name Driver.Exact then incr exact_answers)
        s
    end
  done;
  Trace.set_enabled false;
  let events = Trace.events () in
  Trace.write_chrome (trace_prefix ^ ".json");
  Trace.write_jsonl (trace_prefix ^ ".jsonl");
  let cache1 = Cache.stats cache in
  (* ---- derive the per-layer metrics ---- *)
  let reqs = per_request events in
  let times name = List.filter_map (fun t -> Hashtbl.find_opt t name) reqs |> Array.of_list in
  let sum name = Array.fold_left ( +. ) 0. (times name) in
  let med_ms name =
    let a = times name in
    if Array.length a = 0 then 0. else 1e3 *. Sampling.median a
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let planned k = Option.value ~default:0 (Hashtbl.find_opt plan_counts k) in
  let evals = float_of_int (counters [ "engine.queries"; "flat.queries" ]) in
  let nodes = float_of_int (counter "bnb.nodes") in
  let pruned = float_of_int (counter "bnb.pruned") in
  let ls_tried = float_of_int (counter "ls.moves_tried") in
  let ls_runs = float_of_int (counter "ls.runs") in
  let mc_runs = float_of_int (counter "sim.replicas") in
  let search_s =
    sum "bench.heuristics.run" +. sum "bench.solver_driver.solve"
  in
  let handle = Array.of_list !handle_s in
  let handle_sum = Array.fold_left ( +. ) 0. handle in
  let covered =
    List.fold_left
      (fun acc n -> acc +. sum ("bench." ^ n))
      0.
      [ "pegasus.generate"; "workflow_io.load"; "linearize"; "engine_cache.lookup"; "kernel.build";
        "heuristics.run"; "solver_driver.solve"; "monte_carlo.estimate" ]
  in
  let hits = cache1.Cache.hits - !cache0.Cache.hits
  and misses = cache1.Cache.misses - !cache0.Cache.misses in
  let ms = "ms" and us = "us" and frac = "frac" and per_req = "count/req" in
  let metrics =
    [
      ("codec.decode_us", 1e3 *. med_ms "bench.codec.decode", us);
      ("codec.encode_us", 1e3 *. med_ms "bench.codec.encode", us);
      ("codec.request_bytes", Sampling.median (Array.of_list !request_bytes), "bytes");
      ("workflow_io.load_ms", med_ms "bench.workflow_io.load", ms);
      ("pegasus.generate_ms", med_ms "bench.pegasus.generate", ms);
      ("linearize.ms", med_ms "bench.linearize", ms);
      ("engine_cache.lookup_us", 1e3 *. med_ms "bench.engine_cache.lookup", us);
      ("engine_cache.hit_frac", ratio (float_of_int hits) (float_of_int (hits + misses)), frac);
      ( "engine_cache.evictions",
        float_of_int (cache1.Cache.evictions - !cache0.Cache.evictions) /. measured,
        per_req );
      ("kernel.build_ms", med_ms "bench.kernel.build", ms);
      ("kernel.evals", evals /. measured, per_req);
      ("kernel.us_per_eval", 1e6 *. ratio search_s evals, us);
      ("kernel.steps", float_of_int (counters [ "engine.steps"; "flat.steps" ]) /. measured, per_req);
      ( "kernel.rows_rebuilt",
        float_of_int (counters [ "engine.rows_recomputed"; "flat.rows_rebuilt" ]) /. measured,
        per_req );
      ("heuristics.run_ms", med_ms "bench.heuristics.run", ms);
      ("evaluator.report_ms", med_ms "bench.evaluator.report", ms);
      ("solver_driver.solve_ms", med_ms "bench.solver_driver.solve", ms);
      ( "solver_driver.exact_frac",
        ratio (float_of_int !exact_answers) (float_of_int (planned `E)),
        frac );
      ("exact_solver.nodes", ratio nodes (float_of_int (planned `E)), per_req);
      ("exact_solver.nodes_per_s", ratio nodes (sum "exact.bnb"), "1/s");
      ("exact_solver.pruned_frac", ratio pruned (nodes +. pruned), frac);
      ("local_search.improve_ms", med_ms "local_search.improve", ms);
      ("local_search.evaluations", ratio ls_tried ls_runs, "count/run");
      ("local_search.accept_frac", ratio (float_of_int (counter "ls.moves_accepted")) ls_tried, frac);
      ("monte_carlo.estimate_ms", med_ms "bench.monte_carlo.estimate", ms);
      ("monte_carlo.runs_per_s", ratio mc_runs (sum "bench.monte_carlo.estimate"), "1/s");
      ("sim.failures_per_run", ratio (float_of_int (counter "sim.failures_injected")) mc_runs, "count/run");
      ("server.handle_ms", 1e3 *. Sampling.median handle, ms);
      ("server.transport_ms", e2e_p50_ms -. (1e3 *. Sampling.median handle), ms);
      ( "server.unaccounted_frac",
        ratio (sum "bench.handle" -. covered) (sum "bench.handle"),
        frac );
      ("gc.minor_mb_per_req", 8. *. !minor /. 1e6 /. measured, "MB/req");
      ("gc.major_per_req", float_of_int !major /. measured, per_req);
      ("trace.overhead_frac", ratio (sum "bench.handle" -. handle_sum) handle_sum, frac);
    ]
  in
  let report =
    Printf.sprintf "%-32s %6s %11s %11s" "span (self time per layer)" "count" "total_ms" "self_ms"
    :: List.map
         (fun (name, c, t, s) -> Printf.sprintf "%-32s %6d %11.3f %11.3f" name c (1e3 *. t) (1e3 *. s))
         (self_times (replayed events))
  in
  { metrics; byte_mismatches = List.rev !mismatches; replay_mismatches = !replay_mismatches; report }
