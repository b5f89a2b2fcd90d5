(** Discrete-event fault injection: executes a schedule once against randomly
    drawn exponential failures, reproducing the paper's recovery semantics
    exactly.

    State: the set of task outputs currently in memory (all lost on every
    failure) and the set of checkpoints on stable storage (never lost, only
    appended when a checkpointed task's segment completes). Each position of
    the linearization is executed as a segment — replay of lost, still-needed
    ancestors (recoveries for checkpointed ones, recomputation for the rest),
    the task's own work and its optional checkpoint. A failure inside the
    segment wipes memory, costs the elapsed time plus the downtime, and the
    segment restarts from the surviving checkpoints.

    Cross-validating the mean of many runs against {!Wfc_core.Evaluator} is
    the strongest correctness argument for both implementations. *)

type run = {
  makespan : float;  (** total simulated execution time *)
  failures : int;  (** number of failures injected *)
  wasted : float;  (** time spent on lost attempts, downtime and replays *)
}

(** {1 Execution machinery}

    The pieces every blocking engine shares, exported so variants (the
    adaptive executor, fault injectors) reuse the exact replay semantics
    instead of reimplementing them. *)

type state
(** Platform memory/disk state: which task outputs are live in memory (all
    lost on failure) and which checkpoints sit on stable storage. *)

val make_state : Wfc_dag.Dag.t -> n:int -> state
(** Fresh state for an [n]-task DAG: nothing in memory, nothing on disk. *)

val replay_cost : state -> int -> float
(** Replay cost for executing task [v] now: recover lost checkpointed
    ancestors (at recovery cost), recompute lost plain ones (recursively,
    at their weight). Also notes which outputs the segment will bring back
    to memory, applied by the next {!commit}. *)

val replay_cost_weighted : state -> weight_of:(int -> float) -> int -> float
(** {!replay_cost} with recomputations priced by [weight_of] instead of the
    task weight — replicated runs pass surcharged effective weights, since a
    replayed task re-runs with its replicas. *)

val commit : state -> int -> checkpointing:bool -> unit
(** The segment of task [v] completed: its output (and everything the last
    {!replay_cost} restored) is in memory; with [checkpointing] its
    checkpoint is on disk. *)

val wipe_memory : state -> unit
(** A failure: every in-memory output is lost; disk survives. *)

val recoveries : state -> int
(** Checkpoint reads performed by replays so far. *)

val record_run : run -> recoveries:int -> run
(** Flush one replica's counters to the metrics layer (a no-op when
    disabled) and return the run unchanged. *)

type source = {
  time_to_failure : unit -> float;
      (** time until the next failure, measured from now; [infinity] means
          the current segment cannot fail *)
  consume : float -> unit;
      (** [consume dt]: [dt] seconds elapsed without a failure (lets renewal
          processes age their countdown; memoryless sources ignore it) *)
  next_downtime : unit -> float;  (** drawn once per failure *)
  after_failure : unit -> unit;
      (** the repair renews the process; called {e after} [next_downtime] —
          every engine and recording wrapper relies on that call order *)
}
(** A failure environment as seen by the blocking engine. *)

val source_of_model : rng:Wfc_platform.Rng.t -> Wfc_platform.Failure_model.t -> source
(** Memoryless exponential failures with constant downtime: a fresh
    inter-arrival draw per attempt, which is exact for the exponential law. *)

val renewal_source :
  rng:Wfc_platform.Rng.t ->
  failures:Wfc_platform.Distribution.t ->
  downtime:Wfc_platform.Distribution.t ->
  source
(** Renewal failures: one countdown drawn at start and after every repair,
    consumed by successful segments in between. *)

val run_with_source :
  ?cancel:Wfc_platform.Cancel.t ->
  source ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  run
(** The generic blocking-checkpoint engine, parametric in the failure
    source. {!run} and {!run_renewal} are thin wrappers; {!Trace_io} wraps a
    [source] to record or replay the exact draws.

    [cancel] (default {!Wfc_platform.Cancel.never}) is polled once per
    failure event; a cancelled token aborts the run with
    {!Wfc_platform.Cancel.Cancelled}. A run that is not cancelled is
    unchanged, draw for draw.

    @raise Invalid_argument on a replicated schedule — replicas need one
      failure lane per copy ({!run_with_lanes}); running them against a
      single source would silently under-protect them. *)

val run_with_lanes :
  ?replica_cost:float ->
  ?cancel:Wfc_platform.Cancel.t ->
  source array ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  run
(** Multi-lane engine for replicated schedules: the task at each position
    runs [Schedule.replicas_of] independent copies, copy [j] of every
    attempt drawing from [lanes.(j)]. Lanes are polled in ascending order,
    each lane's outcome fully resolved (consume, or downtime + renewal)
    before the next lane is queried — which makes a single recorded stream
    replay deterministically. An attempt is lost only when {e every} copy
    fails, charged at the last copy's death plus that copy's downtime; an
    attempt that lost copies but survived counts toward the
    [sim.replica_saves] counter. Execution is surcharged through
    {!Wfc_core.Replication.effective_weight} with [replica_cost] (default
    {!Wfc_core.Replication.default_cost}); checkpoint and recovery costs are
    shared, unscaled. [run_with_lanes [| s |]] on an unreplicated schedule
    replays {!run_with_source}'s draws and float operations bit for bit.
    [cancel] is polled once per lost attempt, as in {!run_with_source}.

    @raise Invalid_argument with fewer lanes than
      {!Wfc_core.Schedule.max_replica_count}. *)

val run :
  ?replica_cost:float ->
  ?cancel:Wfc_platform.Cancel.t ->
  rng:Wfc_platform.Rng.t ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  run
(** One simulated execution. With [lambda = 0] the result is
    deterministic: the failure-free time plus all checkpoint costs.
    Replicated schedules run on one memoryless lane per copy
    ({!run_with_lanes}), all drawing from [rng]. [cancel] is polled once
    per failure event. *)

val run_renewal :
  ?replica_cost:float ->
  rng:Wfc_platform.Rng.t ->
  failures:Wfc_platform.Distribution.t ->
  downtime:float ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  run
(** Same execution semantics, but failures arrive as a {e renewal process}:
    one inter-arrival draw from [failures] at start and after every repair,
    instead of a fresh memoryless draw per attempt. For
    [Distribution.Exponential] this is statistically identical to {!run};
    for Weibull and other age-dependent laws it is the meaningful model.

    @raise Invalid_argument if [downtime < 0]. *)
