(** Search-facing front of the evaluation kernel.

    {!Flat_engine} is the one Theorem 3 kernel; this module puts it and the
    replicated evaluator behind a single {!handle} so search loops write one
    code path, and fans candidate batches across domains. The {!Evaluator}
    oracle stays available as the [Naive] backend: one full evaluation per
    candidate, for debugging and for the benchmarks' reference column. *)

type backend = Naive | Flat
(** Selector used by the search modules: [Naive] calls {!Evaluator} per
    candidate (the pre-engine behaviour), [Flat] uses the {!Flat_engine}
    kernel. Both score a candidate to within the oracle's [1e-9] and the
    searches report oracle values either way. *)

val backend_name : backend -> string
(** ["naive"] or ["flat"]. *)

val backend_of_string : string -> backend option
(** Inverse of {!backend_name}, case-insensitive; [None] for any other
    name, including ["incremental"], the removed second kernel. *)

(** {1 Handles}

    Search loops hold a [handle] instead of a concrete engine, so one code
    path serves both the plain kernel and replicated schedules. *)

type handle

val handle :
  ?flags:bool array ->
  ?replicas:int array ->
  ?replica_cost:float ->
  backend ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  order:int array ->
  handle
(** Builds a {!Flat_engine} ([backend] must be [Flat]). When [replicas]
    (per-task counts) contains a count above 1, the handle evaluates the
    replicated schedule through {!Replication.evaluate} (surcharge [replica_cost], default
    {!Replication.default_cost}) with one full evaluation cached per flag
    vector — every [h_*] operation below keeps its meaning, replica counts
    stay fixed for the handle's lifetime. [replicas] absent or all-ones
    builds the plain kernel.

    @raise Invalid_argument on [Naive] (which has no engine state), or on
      the conditions of {!Flat_engine.create}. *)

val h_makespan : handle -> float
val h_prefix_makespan : handle -> upto:int -> float
val h_suffix_makespan : handle -> from:int -> float
val h_flip : handle -> int -> float
val h_set_flag_at : handle -> pos:int -> bool -> unit
val h_set_flags : handle -> bool array -> unit
val h_commit : handle -> unit
val h_rollback : handle -> unit
val h_set_model : handle -> Wfc_platform.Failure_model.t -> unit
val h_order : handle -> int array
val h_flags : handle -> bool array
val h_n_tasks : handle -> int
(** Each [h_*] is the corresponding {!Flat_engine} operation
    ({!Flat_engine.flip}, {!Flat_engine.set_flags}, …), or its replicated
    counterpart. *)

val h_replicas : handle -> int array option
(** The per-task replica counts of a replicated handle, [None] for a plain
    kernel handle. *)

val batch_evaluate :
  ?domains:int ->
  ?replicas:int array ->
  ?replica_cost:float ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  order:int array ->
  bool array list ->
  float list
(** [batch_evaluate model g ~order candidates] evaluates each candidate flag
    vector and returns their expected makespans in order, fanning the
    candidates across [domains] OCaml domains ({!Wfc_platform.Domain_pool},
    default {!Wfc_platform.Domain_pool.default_domains}). Each domain walks
    its contiguous slice with a private engine, so the output is
    bit-identical for every value of [domains]. With replicated [replicas]
    each candidate is scored by {!Replication.evaluate} instead (same
    determinism guarantee); all-ones [replicas] is the unchanged engine
    path.

    @raise Invalid_argument on bad [order], flag sizes, or [domains <= 0]. *)
