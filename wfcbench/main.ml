(* wfcbench — the benchmark of the wfc scheduling daemon.

   Run from the repository root:

     bash wfcbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   run.sh builds bin/wfc.exe and this program from source, then runs it.

   What one run does
   -----------------
   1. Generates the workload's requests from --seed alone (inline workflow
      texts included), before any daemon starts.
   2. Set-up, repeated 3 to 15 times (more where a set-up is short):
      spawn `wfc serve --socket` as users run it (2 workers, default engine,
      cache and queue), connect two binary-codec connections and send the
      warm-up pass through the closed loop. setup_s is the median time from
      spawn to the end of the warm-up pass; every daemon but the last is
      shut down again.
   3. Timed phase: a closed loop over the two connections for --seconds
      seconds (longer only if that yields fewer than the 100 samples p90
      needs); each connection sends its next request only when the previous
      reply has arrived (callers that wait for their answer, as a script
      running a parameter study does). No request names an engine=. About
      once a second the loop marks the host's cumulative CPU steal (the
      hypervisor running other machines on this one's CPUs; /proc/stat).
   4. Completion: any request of the fixed answer set (and, with --trace 1,
      of the replayed prefix) that the timed phase did not reach is sent
      now, outside the timing.
   5. The daemon's VmHWM is read, the daemon is shut down and reaped.
   6. Answer checks, after timing so they do not compete for the cores:
      every solve or simulate reply is recomputed through the Evaluator
      oracle from the Linearize order and the returned checkpoint set and
      must agree within 1e-9 relative (Answer_check).
   7. With --trace 1 only: the traced run (Traced) replays the same requests
      in process. Every daemon reply must be byte-identical to the
      in-process Server.handle reply. The spans (the bench's, nested with
      the program's own) are written through Wfc_obs.Trace to
      .wfcbench_run/trace-WORKLOAD.json (Chrome) and .jsonl.
   Every phase prints sent = succeeded + failed. An error reply, a transport
   failure, an answer-check violation or a byte mismatch is a failure; any
   failure makes "correct" false and the exit code 1.

   The last line of stdout is one JSON object: correct, attempted, failed and
   metrics — the end-to-end metrics with --trace 0, the per-layer metrics
   with --trace 1.

   Workloads (Workload) and why each exists
   ----------------------------------------
   sweep-warm      20 generated Pegasus workflows (Montage, Ligo, CyberShake,
                   Genome, SIPHT; n = 200-260), repeated round-robin as
                   simulate requests: an exhaustive CkptW sweep, then 1000
                   Monte Carlo runs of the winner with a fresh mcseed. After
                   warm-up every request hits the engine cache; a little
                   over half the time is Theorem 3 evaluations inside
                   Heuristics.run (where a kernel change shows), the rest
                   Monte_carlo / Sim (where a simulator change shows).
   cold-inline     n = 800 workflows shipped inline as WfCommons JSON
                   (~300 KB frames), grid=2; 40 workflows cycled at a new
                   MTBF per cycle, so every cache lookup misses and the
                   32-entry LRU evicts. Time goes to the codec, Workflow_io,
                   engine construction, the first evaluation and the oracle
                   report: a cache or parser change shows, a sweep change
                   mostly does not.
   deadline-small  distinct n = 14-24 instances with a deadline worth
                   1k-20k nodes, so Solver_driver takes the exact tier (B&B),
                   falling back to local search when the budget runs out.
                   The only workload where Exact_solver and Local_search
                   dominate; per-request overheads weigh most here, and
                   ratio_mean catches search changes.
   MTBF is a fixed multiple of the workflow's total work (MTBF/ΣW, the
   paper's axis), so E/T_inf stays around 1.1-3.

   End-to-end metrics (--trace 0, tracing off)
   -------------------------------------------
   On a shared host the hypervisor can take the machine's CPUs away for
   minutes, and requests then take longer whatever the program does.
   Latency and throughput therefore come from the steal-free stretches of
   the timed phase: the windows between marks in which less than 0.05 s
   per second was stolen (summed over the CPUs). Latencies are those of
   the requests sent and answered inside one such stretch; throughput
   counts the replies received inside them over their total length. Every
   request is still sent, checked and counted. If fewer than 100 requests
   fall inside (or the host has no steal counter), the whole timed phase
   counts. The run prints how much it kept, and the p50 of all timed
   requests beside it.
   setup_s          median over the set-ups of spawn -> end of warm-up
   throughput_rps   steal-free timed replies / steal-free seconds
   latency_p50_ms   with its sample count
   latency_p90_ms   refused (the run fails) unless 10 samples lie above it
   success_frac     1 - failed_frac, where failed_frac = failures / sent
                    over every phase (reported this way round because a
                    metric must never read 0; "failed" in the JSON is the
                    count)
   ratio_mean       mean E[makespan]/T_inf over the fixed answer set
                    (requests [0, answer_set)): deterministic in the seed
   daemon_rss_mb    the daemon's VmHWM

   Per-layer metrics (--trace 1) and the end-to-end metric each should move
   -------------------------------------------------------------------------
   codec.decode_us, codec.encode_us, codec.request_bytes,
   workflow_io.load_ms            -> latency_p50_ms on cold-inline; ~0 elsewhere
   pegasus.generate_ms, linearize.ms,
   engine_cache.lookup_us         -> every generated-spec request; paid even on
                                     a hit, so they matter most on sweep-warm
   engine_cache.hit_frac, engine_cache.evictions
                                  -> latency_p50_ms on sweep-warm,
                                     daemon_rss_mb on cold-inline
   kernel.build_ms                -> cold-inline
   kernel.evals, kernel.us_per_eval, kernel.steps, kernel.rows_rebuilt,
   heuristics.run_ms              -> latency_p50_ms / throughput_rps on
                                     sweep-warm; little on cold-inline
   evaluator.report_ms            -> cold-inline
   solver_driver.solve_ms, solver_driver.exact_frac, exact_solver.nodes,
   exact_solver.nodes_per_s, exact_solver.pruned_frac,
   local_search.improve_ms, local_search.evaluations,
   local_search.accept_frac       -> latency_p50_ms and ratio_mean on
                                     deadline-small
   monte_carlo.estimate_ms, monte_carlo.runs_per_s,
   sim.failures_per_run           -> latency_p50_ms / throughput_rps on
                                     sweep-warm
   server.handle_ms, server.transport_ms (e2e p50 - handle p50),
   server.unaccounted_frac, gc.minor_mb_per_req, gc.major_per_req,
   trace.overhead_frac            -> all workloads
   Kernel counts are the program's engine.* and flat.* counters summed;
   timings are medians over the replayed requests, counts are per request.
   kernel.us_per_eval is search-layer time (heuristics.run and
   solver_driver.solve spans) per kernel evaluation. The local_search.*
   figures come from the exact tier's local-search fallback (the program's
   own local_search.improve span and ls.* counters). evaluator.report_ms is
   one more oracle evaluation of the final schedule, made by the replay
   outside its handle span; the server makes that oracle call inside
   Heuristics.run or the exact solver, so the same cost is also inside
   heuristics.run_ms and solver_driver.solve_ms. server.unaccounted_frac is
   the share of the replayed handle span that no layer span covers.
   trace.overhead_frac compares that span with the plain Server.handle time
   of the same requests (metrics off); tracing is on in both passes, so it
   covers the metrics and the bench's own spans, not the program's spans,
   and it can read slightly negative. On cold-inline the replay measures the
   second pool cycle, where the LRU is full and every check-in evicts.

   Deliberately out of scope
   -------------------------
   - `simulate ... mtbf=0.5`, which never returns today (it waits for a
     bounded, cancellable simulator core);
   - open-loop and pipelined load, which would press the admission queue;
   - the adapt and corpus endpoints;
   - cross-engine answer agreement (a known defect owned by the kernel
     collapse); answers are checked against the oracle instead;
   - a workload of its own for the simulator: Monte Carlo runs ride on
     sweep-warm instead, so that three workloads fit 30-second runs in the
     time all runs may take (host speed drifts by 15-20% over tens of
     seconds, and shorter runs did not average it out).

   Seeds: any --seed works. Seed 7919 is held out: do not tune against it;
   use it to confirm a claimed gain. *)

module Pr = Wfc_serve.Protocol
module Pool = Wfc_platform.Domain_pool

let run_dir = ".wfcbench_run"

(* The timed phase lasts --seconds, extended on a slow host until it holds
   the samples latency_p90_ms needs (Sampling.min_tail beyond the 90th
   percentile). *)
let min_samples = 10 * Sampling.min_tail

(* Stolen seconds per wall-clock second (summed over the CPUs) below which
   a stretch of the timed phase counts as steal-free. *)
let steal_tolerance = 0.05

type opts = { workload : string; seed : int; seconds : float; trace : bool; wfc : string }

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let wfc = ref "_build/default/bin/wfc.exe" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat "|" Workload.names);
      ("--seed", Arg.Set_int seed, "N  workload seed (non-negative)");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics (0) or the traced run (1)");
      ("--wfc", Arg.Set_string wfc, "PATH  the wfc binary (default " ^ !wfc ^ ")");
    ]
  in
  let usage = "wfcbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let die msg =
    prerr_endline ("wfcbench: " ^ msg);
    prerr_endline (Arg.usage_string spec usage);
    exit 2
  in
  if not (List.mem !workload Workload.names) then die "missing or unknown --workload";
  if !seed < 0 then die "missing or negative --seed";
  if not (!seconds > 0.) then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if not (Sys.file_exists !wfc) then die (Printf.sprintf "wfc binary %s not found" !wfc);
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; wfc = !wfc }

let fatal msg =
  Daemon.kill_all ();
  prerr_endline ("wfcbench: " ^ msg);
  exit 2

let ok_or_fatal = function Ok x -> x | Error m -> fatal m

(* sequential request indices in [lo, hi) *)
let range lo hi =
  let i = ref lo in
  fun () ->
    if !i < hi then (
      let r = !i in
      incr i;
      Some r)
    else None

type phase = { tally : Sampling.tally; replies : Daemon.reply list }

type live = { daemon : Daemon.t; conns : Unix.file_descr list; socket : string }

let shut_down l =
  (match Daemon.stop l.daemon l.conns with Ok () -> () | Error m -> fatal m);
  try Sys.remove l.socket with Sys_error _ -> ()

(* Spawn a daemon, connect, send the warm-up pass: [w.setups] times. Every
   daemon but the last is shut down again. *)
let set_up o (w : Workload.t) ~tag =
  let rec go k times phases =
    let t0 = Unix.gettimeofday () in
    let socket = Printf.sprintf "%s-%d.sock" tag k in
    (try Sys.remove socket with Sys_error _ -> ());
    let daemon =
      ok_or_fatal (Daemon.spawn ~wfc:o.wfc ~socket ~log:(Printf.sprintf "%s-%d.log" tag k))
    in
    let conns = List.init 2 (fun _ -> ok_or_fatal (Daemon.connect daemon)) in
    let tally = Sampling.tally (Printf.sprintf "setup %d (warm-up)" k) in
    let replies =
      Daemon.closed_loop ~conns ~request:w.Workload.request ~next:(range 0 w.Workload.warmup) tally
    in
    let times = (Unix.gettimeofday () -. t0) :: times in
    let phases = { tally; replies } :: phases in
    let l = { daemon; conns; socket } in
    if k = w.Workload.setups then (Array.of_list times, List.rev phases, l)
    else (
      shut_down l;
      go (k + 1) times phases)
  in
  go 1 [] []

(* Every solve/simulate reply against the oracle, on both cores; a reply
   that fails its check moves from succeeded to failed in its phase. *)
let check_answers (w : Workload.t) phases =
  let jobs =
    List.concat_map (fun ph -> List.map (fun r -> (ph.tally, r)) ph.replies) phases |> Array.of_list
  in
  let verdicts = Array.make (Array.length jobs) (Ok 0.) in
  let slices = Pool.chunks ~total:(Array.length jobs) ~domains:2 in
  ignore
    (Pool.run ~domains:(Array.length slices) (fun s ->
         let lo, len = slices.(s) in
         for j = lo to lo + len - 1 do
           let i = (snd jobs.(j)).Daemon.index in
           verdicts.(j) <-
             (try
                Answer_check.check_response (w.Workload.instance i) (w.Workload.request i)
                  (snd jobs.(j)).Daemon.response
              with e -> Error ("checker raised " ^ Printexc.to_string e))
         done));
  List.concat
    (List.mapi
       (fun j v ->
         let tally, (r : Daemon.reply) = jobs.(j) in
         match v with
         | Ok _ -> []
         | Error m ->
             (* error replies were already counted as failures by the loop *)
             if not (Pr.is_error r.Daemon.response) then Sampling.reclassify_failed tally;
             [ Printf.sprintf "request %d: %s" r.Daemon.index m ])
       (Array.to_list verdicts))

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let main o =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* a killed benchmark still stops its daemon: exit runs [at_exit] *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
  at_exit Daemon.kill_all;
  let w = ok_or_fatal (Workload.make o.workload ~seed:o.seed) in
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tag = Printf.sprintf "%s/%s-%d" run_dir o.workload (Unix.getpid ()) in
  let traced_upto = w.Workload.traced_from + w.Workload.traced in
  let need = Int.max w.Workload.answer_set (if o.trace then traced_upto else 0) in
  let setup_times, setup_phases, live = set_up o w ~tag in
  let loop tally next = Daemon.closed_loop ~conns:live.conns ~request:w.Workload.request ~next tally in
  (* ---- timed phase ---- *)
  let timed = Sampling.tally "timed" in
  let next_index = ref w.Workload.warmup in
  let marks = ref [] and next_mark = ref 0. in
  let mark () =
    Option.iter
      (fun stolen -> marks := { Sampling.at = Unix.gettimeofday (); stolen } :: !marks)
      (Daemon.host_steal_s ())
  in
  let t_start = Unix.gettimeofday () in
  let stop_at = t_start +. o.seconds in
  let timed_replies =
    loop timed (fun () ->
        let now = Unix.gettimeofday () in
        if now >= !next_mark then (
          mark ();
          next_mark := now +. 1.);
        if now >= stop_at && timed.Sampling.sent >= min_samples then None
        else (
          incr next_index;
          Some (!next_index - 1)))
  in
  mark ();
  let t_end = Unix.gettimeofday () in
  (* latency: requests wholly inside a steal-free span; throughput: replies
     received inside one, over the spans' length *)
  let spans = Sampling.steal_free_spans ~tolerance:steal_tolerance (List.rev !marks) in
  let in_spans (r : Daemon.reply) =
    Sampling.inside spans (r.Daemon.sent_at, r.Daemon.sent_at +. r.Daemon.latency)
  in
  let kept, kept_s, received_in =
    if !marks <> [] && List.length (List.filter in_spans timed_replies) >= min_samples then
      ( List.filter in_spans timed_replies,
        Sampling.span_seconds spans,
        fun (r : Daemon.reply) ->
          let t = r.Daemon.sent_at +. r.Daemon.latency in
          Sampling.inside spans (t, t) )
    else (timed_replies, t_end -. t_start, fun _ -> true)
  in
  (* ---- completion: the answer set and the replayed prefix, untimed ---- *)
  let completion = Sampling.tally "completion (untimed)" in
  let completion_replies = loop completion (range !next_index need) in
  let rss_kb = Daemon.vm_hwm_kb live.daemon in
  shut_down live;
  let warm_replies = (List.nth setup_phases (w.Workload.setups - 1)).replies in
  let by_index = Hashtbl.create 256 in
  List.iter
    (fun (r : Daemon.reply) -> Hashtbl.replace by_index r.Daemon.index r)
    (warm_replies @ timed_replies @ completion_replies);
  let missing = Sampling.tally "missing (never answered)" in
  for i = 0 to need - 1 do
    if not (Hashtbl.mem by_index i) then (
      Sampling.sent missing;
      Sampling.failed missing)
  done;
  let phases =
    setup_phases
    @ [
        { tally = timed; replies = timed_replies };
        { tally = completion; replies = completion_replies };
        { tally = missing; replies = [] };
      ]
  in
  let violations = check_answers w phases in
  let lat = Array.of_list (List.map (fun (r : Daemon.reply) -> r.Daemon.latency) kept) in
  let p50 = Sampling.median lat in
  (* ---- traced run ---- *)
  let traced =
    if not o.trace then None
    else begin
      let payloads = Hashtbl.create 256 in
      Hashtbl.iter (fun i (r : Daemon.reply) -> Hashtbl.replace payloads i r.Daemon.payload) by_index;
      let res =
        Traced.run w ~daemon_payloads:payloads ~e2e_p50_ms:(1e3 *. p50)
          ~trace_prefix:(Printf.sprintf "%s/trace-%s" run_dir o.workload)
      in
      let tally = Sampling.tally "traced (daemon reply = in-process reply)" in
      for i = 0 to traced_upto - 1 do
        Sampling.sent tally;
        if List.mem i res.Traced.byte_mismatches then Sampling.failed tally
        else Sampling.succeeded tally
      done;
      Some (res, tally)
    end
  in
  let tallies = List.map (fun ph -> ph.tally) phases @ Option.to_list (Option.map snd traced) in
  let total = Sampling.merge "all phases" tallies in
  (* ---- report ---- *)
  Printf.printf "wfcbench %s seed=%d seconds=%g trace=%d\n" o.workload o.seed o.seconds
    (if o.trace then 1 else 0);
  List.iter (fun t -> print_endline ("  " ^ Sampling.render t)) (tallies @ [ total ]);
  Printf.printf
    "  steal-free: %.1f of %.1f timed seconds, %d of %d timed requests kept (p50 of all: %.3f ms)\n"
    kept_s (t_end -. t_start) (List.length kept) (List.length timed_replies)
    (1e3
    *. Sampling.median
         (Array.of_list (List.map (fun (r : Daemon.reply) -> r.Daemon.latency) timed_replies)));
  List.iteri (fun k v -> if k < 10 then print_endline ("  VIOLATION " ^ v)) violations;
  let problems = ref [] in
  if not (List.for_all Sampling.balanced (total :: tallies)) then
    problems := "unbalanced phase accounting" :: !problems;
  let metrics =
    match traced with
    | Some (res, _) ->
        List.iter print_endline res.Traced.report;
        if res.Traced.byte_mismatches <> [] then
          problems :=
            Printf.sprintf "%d daemon replies differ from Server.handle"
              (List.length res.Traced.byte_mismatches)
            :: !problems;
        if res.Traced.replay_mismatches > 0 then
          Printf.printf
            "  WARNING: %d replayed replies differ from Server.handle; the layer figures no longer \
             mirror the server\n"
            res.Traced.replay_mismatches;
        res.Traced.metrics
    | None ->
        let p90 =
          match Sampling.percentile lat 0.9 with
          | Ok v -> v
          | Error m -> fatal (Printf.sprintf "latency: %s (raise --seconds)" m)
        in
        let ok_timed =
          List.filter
            (fun (r : Daemon.reply) -> received_in r && not (Pr.is_error r.Daemon.response))
            timed_replies
        in
        let answer_ratios =
          Array.init w.Workload.answer_set (fun i ->
              match Hashtbl.find_opt by_index i with
              | Some { Daemon.response = Pr.Solved s; _ } -> s.Pr.ratio
              | Some { Daemon.response = Pr.Simulated s; _ } -> s.Pr.solved.Pr.ratio
              | _ -> Float.nan)
        in
        [
          ("setup_s", Sampling.median setup_times, "s");
          ("throughput_rps", float_of_int (List.length ok_timed) /. kept_s, "1/s");
          ("latency_p50_ms", 1e3 *. p50, "ms");
          ("latency_p90_ms", 1e3 *. p90, "ms");
          ("success_frac", 1. -. Sampling.failed_frac total, "frac");
          ("ratio_mean", Sampling.mean answer_ratios, "ratio");
          ( "daemon_rss_mb",
            (match rss_kb with Some kb -> float_of_int kb /. 1024. | None -> fatal "no VmHWM"),
            "MB" );
        ]
  in
  List.iter
    (fun (name, v, unit) ->
      let n =
        match name with
        | "latency_p50_ms" | "latency_p90_ms" | "throughput_rps" ->
            Printf.sprintf "  (n=%d)" (Array.length lat)
        | "setup_s" -> Printf.sprintf "  (n=%d)" w.Workload.setups
        | "ratio_mean" -> Printf.sprintf "  (n=%d)" w.Workload.answer_set
        | _ -> ""
      in
      Printf.printf "  %-26s %14.6f %s%s\n" name v unit n;
      if not (Float.is_finite v) then problems := (name ^ " is not finite") :: !problems)
    metrics;
  let correct = total.Sampling.failed = 0 && !problems = [] in
  List.iter (fun p -> print_endline ("  PROBLEM " ^ p)) !problems;
  let metrics_json =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (if Float.is_finite v then json_number v else "null")
          unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct total.Sampling.sent
    (Int.max total.Sampling.failed (if correct then 0 else 1))
    (String.concat ", " metrics_json);
  for k = 1 to w.Workload.setups do
    try Sys.remove (Printf.sprintf "%s-%d.log" tag k) with Sys_error _ -> ()
  done;
  if not correct then exit 1

let () = main (parse_args ())
