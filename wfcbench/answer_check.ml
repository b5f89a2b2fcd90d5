module Dag = Wfc_dag.Dag
module Lin = Wfc_dag.Linearize
module FM = Wfc_platform.Failure_model
module Schedule = Wfc_core.Schedule
module Evaluator = Wfc_core.Evaluator
module Pr = Wfc_serve.Protocol

type instance = { dag : Dag.t; model : FM.t; lin : Lin.strategy }

let instance_of_params ~dag (p : Pr.solve_params) =
  { dag; model = FM.of_mtbf ~mtbf:p.Pr.mtbf ~downtime:p.Pr.downtime (); lin = p.Pr.lin }

let ( let* ) = Result.bind

(* Relative agreement to 1e-9. *)
let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs b) 1e-300

let schedule_of inst ckpt_tasks =
  let n = Dag.n_tasks inst.dag in
  let flags = Array.make n false in
  let* () =
    List.fold_left
      (fun acc v ->
        let* () = acc in
        if v < 0 || v >= n then Error (Printf.sprintf "checkpointed task %d out of range" v)
        else if flags.(v) then Error (Printf.sprintf "checkpointed task %d repeated" v)
        else (
          flags.(v) <- true;
          Ok ()))
      (Ok ()) ckpt_tasks
  in
  let order = Lin.run inst.lin inst.dag in
  Ok (Schedule.make inst.dag ~order ~checkpointed:flags)

let check_solved inst (s : Pr.solved) =
  let n = Dag.n_tasks inst.dag in
  let* () =
    if s.Pr.n_tasks = n then Ok ()
    else Error (Printf.sprintf "n_tasks %d, workflow has %d" s.Pr.n_tasks n)
  in
  let* () =
    if s.Pr.n_ckpt = List.length s.Pr.ckpt_tasks then Ok ()
    else
      Error
        (Printf.sprintf "n_ckpt %d but %d checkpointed tasks listed" s.Pr.n_ckpt
           (List.length s.Pr.ckpt_tasks))
  in
  let* sched = schedule_of inst s.Pr.ckpt_tasks in
  let* () =
    if Schedule.checkpointed_tasks sched = s.Pr.ckpt_tasks then Ok ()
    else Error "checkpointed tasks not listed in execution order"
  in
  let e = Evaluator.expected_makespan inst.model inst.dag sched in
  let* () =
    if Float.is_finite e && close s.Pr.makespan e then Ok ()
    else
      Error
        (Printf.sprintf "makespan %.17g, oracle %.17g (rel err %.3g)" s.Pr.makespan e
           (Float.abs (s.Pr.makespan -. e) /. Float.abs e))
  in
  let tinf = Evaluator.fail_free_time inst.dag in
  let expect_ratio = if tinf > 0. then e /. tinf else 1. in
  if close s.Pr.ratio expect_ratio then Ok ()
  else Error (Printf.sprintf "ratio %.17g, oracle %.17g" s.Pr.ratio expect_ratio)

let check_simulated ~runs inst (r : Pr.simulated) =
  let* () = check_solved inst r.Pr.solved in
  let* () =
    if r.Pr.runs = runs then Ok ()
    else Error (Printf.sprintf "runs %d, requested %d" r.Pr.runs runs)
  in
  let* () =
    if r.Pr.ci_lo <= r.Pr.sim_mean && r.Pr.sim_mean <= r.Pr.ci_hi then Ok ()
    else
      Error
        (Printf.sprintf "simulated mean %g outside its interval [%g, %g]" r.Pr.sim_mean
           r.Pr.ci_lo r.Pr.ci_hi)
  in
  let* () =
    if r.Pr.failures_mean >= 0. then Ok ()
    else Error (Printf.sprintf "negative failures per run %g" r.Pr.failures_mean)
  in
  let e = r.Pr.solved.Pr.makespan in
  let half = 0.5 *. (r.Pr.ci_hi -. r.Pr.ci_lo) in
  if Float.abs (r.Pr.sim_mean -. e) <= (4. *. half) +. (1e-9 *. e) then Ok ()
  else
    Error
      (Printf.sprintf "simulated mean %g disagrees with E[makespan] %g (half-width %g)"
         r.Pr.sim_mean e half)

let check_response inst req resp =
  match (req, resp) with
  | _, Pr.Error { code; message } ->
      Error (Printf.sprintf "error reply %s: %s" (Pr.error_code_name code) message)
  | Pr.Solve _, Pr.Solved s ->
      let* () = check_solved inst s in
      Ok s.Pr.ratio
  | Pr.Simulate { runs; _ }, Pr.Simulated r ->
      let* () = check_simulated ~runs inst r in
      Ok r.Pr.solved.Pr.ratio
  | _ -> Error "reply kind does not match the request"
