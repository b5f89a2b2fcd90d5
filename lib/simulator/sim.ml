type run = { makespan : float; failures : int; wasted : float }

module Metrics = Wfc_obs.Metrics

(* One flush per simulated replica, whichever engine ran it: Sim.run,
   Sim.run_renewal or the fault-injecting Sim_faults.run (which shares these
   counters and adds its own). *)
let m_replicas = Metrics.counter "sim.replicas"
let m_failures = Metrics.counter "sim.failures_injected"
let m_recoveries = Metrics.counter "sim.recoveries"
let h_lost_work = Metrics.histogram "sim.lost_work"

(* Task-replication counters: extra copies a replicated run placed, and
   attempts that lost at least one copy but survived on a sibling. *)
let m_replicas_placed = Metrics.counter "sim.replicas_placed"
let m_replica_saves = Metrics.counter "sim.replica_saves"

let record_run r ~recoveries =
  if Metrics.enabled () then begin
    Metrics.incr m_replicas;
    Metrics.add m_failures r.failures;
    Metrics.add m_recoveries recoveries;
    Metrics.observe h_lost_work r.wasted
  end;
  r

(* Shared state and replay-closure computation for all execution engines. *)
type state = {
  g : Wfc_dag.Dag.t;
  in_memory : bool array;
  on_disk : bool array;
  seen : bool array;  (* scratch for the closure walk *)
  mutable restored : int list;  (* outputs the current segment brings back *)
  mutable recoveries : int;  (* checkpoint reads performed during replays *)
}

let make_state g ~n =
  {
    g;
    in_memory = Array.make n false;
    on_disk = Array.make n false;
    seen = Array.make n false;
    restored = [];
    recoveries = 0;
  }

let weight st v = (Wfc_dag.Dag.task st.g v).Wfc_dag.Task.weight
let ckpt_cost st v = (Wfc_dag.Dag.task st.g v).Wfc_dag.Task.checkpoint_cost
let rec_cost st v = (Wfc_dag.Dag.task st.g v).Wfc_dag.Task.recovery_cost

(* Replay cost for task [v]: recover lost checkpointed ancestors, recompute
   lost plain ones (recursively). Fills [st.restored] with the outputs the
   segment will bring back to memory on success. [weight_of] prices a
   recomputation — replicated runs pass surcharged weights, since a replayed
   task re-runs with its replicas. *)
let replay_cost_weighted st ~weight_of v =
  st.restored <- [];
  Array.fill st.seen 0 (Array.length st.seen) false;
  let cost = ref 0. in
  let rec visit v =
    Array.iter
      (fun u ->
        if (not st.in_memory.(u)) && not st.seen.(u) then begin
          st.seen.(u) <- true;
          st.restored <- u :: st.restored;
          if st.on_disk.(u) then begin
            st.recoveries <- st.recoveries + 1;
            cost := !cost +. rec_cost st u
          end
          else begin
            cost := !cost +. weight_of u;
            visit u
          end
        end)
      (Wfc_dag.Dag.preds_array st.g v)
  in
  visit v;
  !cost

let replay_cost st v = replay_cost_weighted st ~weight_of:(weight st) v

let commit st v ~checkpointing =
  List.iter (fun u -> st.in_memory.(u) <- true) st.restored;
  st.in_memory.(v) <- true;
  if checkpointing then st.on_disk.(v) <- true

let wipe_memory st = Array.fill st.in_memory 0 (Array.length st.in_memory) false
let recoveries st = st.recoveries

(* A failure environment as seen by the blocking engine. [time_to_failure]
   returns the time until the next failure measured from now; [consume dt]
   tells the process that [dt] seconds elapsed without failure;
   [next_downtime] is drawn once per failure, before [after_failure] lets
   renewal processes redraw — the call order every engine (and every
   recording wrapper) relies on. *)
type source = {
  time_to_failure : unit -> float;
  consume : float -> unit;
  next_downtime : unit -> float;
  after_failure : unit -> unit;
}

let source_of_model ~rng model =
  let lambda = model.Wfc_platform.Failure_model.lambda in
  let downtime = model.Wfc_platform.Failure_model.downtime in
  {
    (* memoryless: a fresh draw per attempt is exact for exponential *)
    time_to_failure =
      (fun () ->
        if lambda = 0. then infinity
        else Wfc_platform.Rng.exponential rng ~rate:lambda);
    consume = (fun _ -> ());
    next_downtime = (fun () -> downtime);
    after_failure = (fun () -> ());
  }

let renewal_source ~rng ~failures ~downtime =
  (* countdown to the next failure: consumed by successful segments, redrawn
     after each repair (the repair renews the process) *)
  let remaining = ref (Wfc_platform.Distribution.sample failures rng) in
  {
    time_to_failure = (fun () -> !remaining);
    consume = (fun dt -> remaining := !remaining -. dt);
    next_downtime = (fun () -> Wfc_platform.Distribution.sample downtime rng);
    after_failure =
      (fun () -> remaining := Wfc_platform.Distribution.sample failures rng);
  }

(* Generic blocking-checkpoint engine, parametric in the failure source.
   [cancel] is polled once per failure event: a run that keeps failing is
   the only way this loop can spin unboundedly, and a poll that does not
   raise changes nothing. *)
let run_with_source ?(cancel = Wfc_platform.Cancel.never) source g sched =
  if Wfc_core.Schedule.is_replicated sched then
    invalid_arg
      "Sim.run_with_source: replicated schedule needs failure lanes \
       (run_with_lanes)";
  let n = Wfc_core.Schedule.n_tasks sched in
  let st = make_state g ~n in
  let time = ref 0. and failures = ref 0 and wasted = ref 0. in
  for p = 0 to n - 1 do
    let v = Wfc_core.Schedule.task_at sched p in
    let checkpointing = Wfc_core.Schedule.is_checkpointed sched v in
    let finished = ref false in
    while not !finished do
      let replay = replay_cost st v in
      let segment =
        replay +. weight st v +. (if checkpointing then ckpt_cost st v else 0.)
      in
      let fail_after = source.time_to_failure () in
      if fail_after >= segment then begin
        time := !time +. segment;
        wasted := !wasted +. replay;
        source.consume segment;
        commit st v ~checkpointing;
        finished := true
      end
      else begin
        let downtime = source.next_downtime () in
        time := !time +. fail_after +. downtime;
        wasted := !wasted +. fail_after +. downtime;
        incr failures;
        Wfc_platform.Cancel.check cancel;
        wipe_memory st;
        source.after_failure ()
      end
    done
  done;
  record_run
    { makespan = !time; failures = !failures; wasted = !wasted }
    ~recoveries:st.recoveries

(* Multi-lane engine for replicated schedules: the task at each position
   runs [Schedule.replicas_of] independent copies, lane [j] of the attempt
   drawing from [lanes.(j)]. Lanes are polled in strict ascending order and
   each lane's outcome (consume, or downtime + renewal) is resolved before
   the next lane is queried, so a single recorded stream replays
   deterministically. The attempt is lost only when every copy fails; the
   loss is charged at the last copy's death, with that copy's downtime. With
   [lanes = [| s |]] and an unreplicated schedule this replays
   {!run_with_source}'s draws and float operations exactly. *)
let run_with_lanes ?(replica_cost = Wfc_core.Replication.default_cost)
    ?(cancel = Wfc_platform.Cancel.never) lanes g sched =
  let n = Wfc_core.Schedule.n_tasks sched in
  if Array.length lanes < Wfc_core.Schedule.max_replica_count sched then
    invalid_arg "Sim.run_with_lanes: fewer lanes than replicas";
  let st = make_state g ~n in
  let eff_w v =
    Wfc_core.Replication.effective_weight ~cost:replica_cost
      ~weight:(weight st v)
      ~r:(Wfc_core.Schedule.replicas_of sched v)
  in
  let time = ref 0. and failures = ref 0 and wasted = ref 0. in
  let saves = ref 0 in
  for p = 0 to n - 1 do
    let v = Wfc_core.Schedule.task_at sched p in
    let r = Wfc_core.Schedule.replicas_of sched v in
    let checkpointing = Wfc_core.Schedule.is_checkpointed sched v in
    let finished = ref false in
    while not !finished do
      let replay = replay_cost_weighted st ~weight_of:eff_w v in
      let segment =
        replay +. eff_w v +. (if checkpointing then ckpt_cost st v else 0.)
      in
      let survivors = ref 0 and losses = ref 0 in
      let last_death = ref neg_infinity and last_downtime = ref 0. in
      for j = 0 to r - 1 do
        let lane = lanes.(j) in
        let fail_after = lane.time_to_failure () in
        if fail_after >= segment then begin
          lane.consume segment;
          incr survivors
        end
        else begin
          let downtime = lane.next_downtime () in
          incr losses;
          if fail_after > !last_death then begin
            last_death := fail_after;
            last_downtime := downtime
          end;
          lane.after_failure ()
        end
      done;
      if !survivors > 0 then begin
        time := !time +. segment;
        wasted := !wasted +. replay;
        commit st v ~checkpointing;
        if !losses > 0 then incr saves;
        finished := true
      end
      else begin
        time := !time +. !last_death +. !last_downtime;
        wasted := !wasted +. !last_death +. !last_downtime;
        incr failures;
        Wfc_platform.Cancel.check cancel;
        wipe_memory st
      end
    done
  done;
  if Metrics.enabled () then begin
    Metrics.add m_replicas_placed (Wfc_core.Schedule.extra_replicas sched);
    Metrics.add m_replica_saves !saves
  end;
  record_run
    { makespan = !time; failures = !failures; wasted = !wasted }
    ~recoveries:st.recoveries

let run ?replica_cost ?cancel ~rng model g sched =
  if Wfc_core.Schedule.is_replicated sched then
    (* one source per lane: sequential creation on a shared rng gives
       independent draws, and the memoryless source draws nothing before its
       first attempt *)
    let lanes =
      Array.init
        (Wfc_core.Schedule.max_replica_count sched)
        (fun _ -> source_of_model ~rng model)
    in
    run_with_lanes ?replica_cost ?cancel lanes g sched
  else run_with_source ?cancel (source_of_model ~rng model) g sched

let run_renewal ?replica_cost ~rng ~failures ~downtime g sched =
  if downtime < 0. then invalid_arg "Sim.run_renewal: negative downtime";
  let downtime = Wfc_platform.Distribution.Constant downtime in
  if Wfc_core.Schedule.is_replicated sched then
    (* renewal lanes draw their first countdown at creation, in lane order *)
    let lanes =
      Array.init
        (Wfc_core.Schedule.max_replica_count sched)
        (fun _ -> renewal_source ~rng ~failures ~downtime)
    in
    run_with_lanes ?replica_cost lanes g sched
  else run_with_source (renewal_source ~rng ~failures ~downtime) g sched
