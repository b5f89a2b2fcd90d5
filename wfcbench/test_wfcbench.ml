(* Unit tests of the benchmark's own helpers: the percentile rule, the
   per-phase failure accounting, the oracle answer checker and the seeded
   workload generation. *)

module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module H = Wfc_core.Heuristics
module Lin = Wfc_dag.Linearize
module Pr = Wfc_serve.Protocol
module Server = Wfc_serve.Server
module Codec = Wfc_serve.Codec

let ok = function Ok x -> x | Error m -> Alcotest.fail m
let is_error = function Ok _ -> false | Error _ -> true
let floats = Alcotest.float 0.

(* ---- percentiles ---- *)

let ramp n = Array.init n (fun i -> float_of_int (n - i))  (* n, n-1, ..., 1 *)

let test_nearest_rank () =
  Alcotest.check floats "p90 of 1..100" 90. (ok (Sampling.percentile (ramp 100) 0.9));
  Alcotest.check floats "p50 of 1..40" 20. (ok (Sampling.percentile (ramp 40) 0.5));
  Alcotest.check floats "p90 of 1..200" 180. (ok (Sampling.percentile (ramp 200) 0.9))

let test_tail_rule () =
  (* p90 needs ceil(0.9 n) <= n - 10, i.e. n >= 100 *)
  Alcotest.(check bool) "99 samples refuse p90" true (is_error (Sampling.percentile (ramp 99) 0.9));
  Alcotest.(check bool) "100 samples allow p90" false (is_error (Sampling.percentile (ramp 100) 0.9));
  (* the old serve bench's "p99" over 50 samples was the maximum *)
  Alcotest.(check bool) "p99 of 50 refused" true (is_error (Sampling.percentile (ramp 50) 0.99));
  Alcotest.(check bool) "p99 of 999 refused" true (is_error (Sampling.percentile (ramp 999) 0.99));
  Alcotest.(check bool) "p99 of 1000 allowed" false (is_error (Sampling.percentile (ramp 1000) 0.99));
  Alcotest.(check bool) "empty refused" true (is_error (Sampling.percentile [||] 0.5));
  Alcotest.(check bool) "p outside (0,1) refused" true (is_error (Sampling.percentile (ramp 100) 1.))

let test_no_mutation_and_median () =
  let a = ramp 5 in
  ignore (Sampling.percentile a 0.5);
  ignore (Sampling.median a);
  Alcotest.(check (array floats)) "input untouched" (ramp 5) a;
  Alcotest.check floats "odd median" 3. (Sampling.median a);
  Alcotest.check floats "even median" 2.5 (Sampling.median (ramp 4));
  Alcotest.check floats "mean" 2.5 (Sampling.mean (ramp 4));
  Alcotest.(check bool) "empty median is nan" true (Float.is_nan (Sampling.median [||]))

(* ---- steal-free spans ---- *)

let test_steal_spans () =
  let m at stolen = { Sampling.at; stolen } in
  (* 0.5 s stolen between t=2 and t=3, a trickle elsewhere *)
  let marks = [ m 0. 10.; m 1. 10.01; m 2. 10.02; m 3. 10.52; m 4. 10.53; m 5. 10.53 ] in
  let spans = Sampling.steal_free_spans ~tolerance:0.02 marks in
  Alcotest.(check (list (pair floats floats))) "stolen window cut out" [ (0., 2.); (3., 5.) ] spans;
  Alcotest.check floats "steal-free seconds" 4. (Sampling.span_seconds spans);
  Alcotest.(check bool) "inside a span" true (Sampling.inside spans (0.5, 1.9));
  Alcotest.(check bool) "across the stolen window" false (Sampling.inside spans (1.5, 3.5));
  Alcotest.(check bool) "inside the stolen window" false (Sampling.inside spans (2.2, 2.4));
  Alcotest.(check (list (pair floats floats))) "one mark, no window" []
    (Sampling.steal_free_spans ~tolerance:0.02 [ m 0. 1. ])

(* ---- failure accounting ---- *)

let test_accounting () =
  let t = Sampling.tally "timed" in
  for _ = 1 to 5 do Sampling.sent t done;
  Sampling.succeeded t;
  Sampling.succeeded t;
  Sampling.succeeded t;
  Sampling.failed t;
  Alcotest.(check bool) "in flight: unbalanced" false (Sampling.balanced t);
  Sampling.failed t;
  Alcotest.(check bool) "balanced" true (Sampling.balanced t);
  Alcotest.check floats "failed_frac" 0.4 (Sampling.failed_frac t);
  Sampling.reclassify_failed t;
  Alcotest.(check (pair int int)) "violation moves a success to failed" (2, 3)
    (t.Sampling.succeeded, t.Sampling.failed);
  Alcotest.(check bool) "still balanced" true (Sampling.balanced t);
  Alcotest.(check string) "render" "timed: sent 5 = succeeded 2 + failed 3" (Sampling.render t);
  let u = Sampling.tally "setup" in
  Sampling.sent u;
  Sampling.succeeded u;
  let all = Sampling.merge "all" [ t; u ] in
  Alcotest.(check (list int)) "merge sums" [ 6; 3; 3 ]
    [ all.Sampling.sent; all.Sampling.succeeded; all.Sampling.failed ];
  Alcotest.check floats "nothing sent" 0. (Sampling.failed_frac (Sampling.tally "idle"));
  Alcotest.check_raises "no success to reclassify"
    (Invalid_argument "Sampling.reclassify_failed: no success") (fun () ->
      Sampling.reclassify_failed (Sampling.tally "x"))

(* ---- answer checker ---- *)

let instance () =
  let dag = CM.apply (CM.Proportional 0.1) (P.generate P.Montage ~n:25 ~seed:3) in
  let params = { Pr.default_solve with Pr.mtbf = 0.1 *. Wfc_core.Evaluator.fail_free_time dag } in
  (Answer_check.instance_of_params ~dag params, params)

let solved_of (inst : Answer_check.instance) =
  let o =
    H.run ~search:(H.Grid 6) inst.Answer_check.model inst.Answer_check.dag ~lin:inst.Answer_check.lin
      ~ckpt:H.Ckpt_weight
  in
  let tinf = Wfc_core.Evaluator.fail_free_time inst.Answer_check.dag in
  {
    Pr.source = "montage-25";
    n_tasks = 25;
    heuristic = "DF-CkptW";
    tier = "heuristic";
    makespan = o.H.makespan;
    ratio = o.H.makespan /. tinf;
    n_ckpt = Wfc_core.Schedule.checkpoint_count o.H.schedule;
    ckpt_tasks = Wfc_core.Schedule.checkpointed_tasks o.H.schedule;
    evaluations = o.H.evaluations;
  }

let test_checker_accepts () =
  let inst, _ = instance () in
  let s = solved_of inst in
  ok (Answer_check.check_solved inst s);
  (* a last-bit difference is within 1e-9 *)
  ok (Answer_check.check_solved inst { s with Pr.makespan = s.Pr.makespan *. (1. +. 1e-13) })

let test_checker_rejects () =
  let inst, _ = instance () in
  let s = solved_of inst in
  let rejects what s' =
    Alcotest.(check bool) what true (is_error (Answer_check.check_solved inst s'))
  in
  rejects "perturbed makespan" { s with Pr.makespan = s.Pr.makespan *. (1. +. 1e-7) };
  rejects "perturbed ratio" { s with Pr.ratio = s.Pr.ratio *. (1. +. 1e-7) };
  rejects "wrong n_tasks" { s with Pr.n_tasks = 24 };
  rejects "n_ckpt disagrees" { s with Pr.n_ckpt = s.Pr.n_ckpt + 1 };
  rejects "task out of range" { s with Pr.ckpt_tasks = 25 :: s.Pr.ckpt_tasks; n_ckpt = s.Pr.n_ckpt + 1 };
  (match s.Pr.ckpt_tasks with
  | v :: _ ->
      rejects "repeated task" { s with Pr.ckpt_tasks = v :: s.Pr.ckpt_tasks; n_ckpt = s.Pr.n_ckpt + 1 };
      (* dropping a checkpoint changes the schedule, so the oracle moves *)
      rejects "another checkpoint set"
        { s with Pr.ckpt_tasks = List.tl s.Pr.ckpt_tasks; n_ckpt = s.Pr.n_ckpt - 1 }
  | [] -> Alcotest.fail "expected checkpoints at MTBF = 0.1 W");
  if List.length s.Pr.ckpt_tasks >= 2 then rejects "not in execution order" { s with Pr.ckpt_tasks = List.rev s.Pr.ckpt_tasks }

let test_checker_simulated () =
  let inst, _ = instance () in
  let s = solved_of inst in
  let e = s.Pr.makespan in
  let sim = { Pr.solved = s; runs = 1000; sim_mean = e *. 1.001; ci_lo = e *. 0.99; ci_hi = e *. 1.01; failures_mean = 2. } in
  ok (Answer_check.check_simulated ~runs:1000 inst sim);
  let rejects what sim' =
    Alcotest.(check bool) what true (is_error (Answer_check.check_simulated ~runs:1000 inst sim'))
  in
  rejects "runs not echoed" { sim with Pr.runs = 999 };
  rejects "mean outside its interval" { sim with Pr.sim_mean = e *. 1.02 };
  rejects "far from the expectation" { sim with Pr.sim_mean = e *. 1.2; ci_lo = e *. 1.19; ci_hi = e *. 1.21 };
  rejects "perturbed analytic makespan"
    { sim with Pr.solved = { s with Pr.makespan = e *. (1. +. 1e-6) } }

let test_check_response () =
  let inst, params = instance () in
  let s = solved_of inst in
  Alcotest.check floats "ratio returned" s.Pr.ratio
    (ok (Answer_check.check_response inst (Pr.Solve params) (Pr.Solved s)));
  Alcotest.(check bool) "error reply" true
    (is_error
       (Answer_check.check_response inst (Pr.Solve params)
          (Pr.Error { code = Pr.Busy; message = "queue full" })));
  Alcotest.(check bool) "wrong kind" true
    (is_error (Answer_check.check_response inst (Pr.Solve params) Pr.Pong))

(* ---- workloads ---- *)

let encode w i = Codec.encode_request ~id:0L (w.Workload.request i)

let test_seeded () =
  List.iter
    (fun name ->
      let a = ok (Workload.make name ~seed:11) and b = ok (Workload.make name ~seed:11) in
      let c = ok (Workload.make name ~seed:12) in
      let firsts w = List.init 12 (encode w) in
      Alcotest.(check (list string)) (name ^ ": same seed, same requests") (firsts a) (firsts b);
      Alcotest.(check bool) (name ^ ": another seed, other requests") true (firsts a <> firsts c);
      Alcotest.(check bool) (name ^ ": answer set covers warm-up") true
        (a.Workload.answer_set >= a.Workload.warmup);
      List.iter
        (fun i ->
          let req = a.Workload.request i in
          ok (Pr.validate req);
          match req with
          | Pr.Solve p | Pr.Simulate { params = p; _ } ->
              Alcotest.(check bool) (name ^ ": default engine") true
                (p.Pr.backend = Pr.default_solve.Pr.backend)
          | _ -> Alcotest.fail "not a compute request")
        (List.init 12 Fun.id))
    Workload.names;
  Alcotest.(check bool) "unknown name" true (is_error (Workload.make "nope" ~seed:1))

(* The checker agrees with the real server on each workload's first
   requests, and a perturbed reply is caught. *)
let test_against_server () =
  let srv = Server.create () in
  List.iter
    (fun name ->
      let w = ok (Workload.make name ~seed:5) in
      for i = 0 to 1 do
        let req = w.Workload.request i in
        let resp = Server.handle srv req in
        let inst = w.Workload.instance i in
        ignore (ok (Answer_check.check_response inst req resp));
        let bad =
          match resp with
          | Pr.Solved s -> Pr.Solved { s with Pr.makespan = s.Pr.makespan *. 1.0001 }
          | Pr.Simulated r ->
              Pr.Simulated
                { r with Pr.solved = { r.Pr.solved with Pr.makespan = r.Pr.solved.Pr.makespan *. 1.0001 } }
          | _ -> Alcotest.fail (name ^ ": unexpected reply")
        in
        Alcotest.(check bool) (name ^ ": perturbed reply rejected") true
          (is_error (Answer_check.check_response inst req bad))
      done)
    Workload.names

let test_mix () =
  let xs = List.init 1000 (fun i -> Workload.mix 7 3 i) in
  Alcotest.(check bool) "in range" true (List.for_all (fun x -> x >= 0 && x < 1 lsl 30) xs);
  Alcotest.(check int) "distinct" 1000 (List.length (List.sort_uniq compare xs));
  Alcotest.(check int) "deterministic" (Workload.mix 7 3 5) (Workload.mix 7 3 5)

let () =
  Alcotest.run "wfcbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "ten samples above or refuse" `Quick test_tail_rule;
          Alcotest.test_case "median, input untouched" `Quick test_no_mutation_and_median;
        ] );
      ("steal", [ Alcotest.test_case "steal-free spans" `Quick test_steal_spans ]);
      ("accounting", [ Alcotest.test_case "sent = succeeded + failed" `Quick test_accounting ]);
      ( "answer check",
        [
          Alcotest.test_case "accepts the oracle's answer" `Quick test_checker_accepts;
          Alcotest.test_case "rejects perturbed answers" `Quick test_checker_rejects;
          Alcotest.test_case "simulate replies" `Quick test_checker_simulated;
          Alcotest.test_case "reply dispatch" `Quick test_check_response;
        ] );
      ( "workload",
        [
          Alcotest.test_case "seeded generation" `Quick test_seeded;
          Alcotest.test_case "checker agrees with Server.handle" `Quick test_against_server;
          Alcotest.test_case "seed mixing" `Quick test_mix;
        ] );
    ]
