(** Step-by-step construction of workflow DAGs.

    Generators add typed tasks one by one, wiring each to already-added
    dependencies, and finalize into a {!Wfc_dag.Dag.t} whose weights are
    sampled from the job types. *)

type t

val create : rng:Wfc_platform.Rng.t -> t

val add_task : t -> Job_type.t -> deps:int list -> int
(** [add_task b jt ~deps] registers a new task of type [jt] depending on the
    given earlier task ids, and returns its id (ids are consecutive from 0).

    @raise Invalid_argument if a dependency id is not an existing task. *)

val size : t -> int
(** Number of tasks added so far. *)

val finalize : t -> Wfc_dag.Dag.t
(** Build the DAG, sampling every task weight with the builder's RNG; task
    labels are ["<type>_<k>"] where [k] counts tasks of that type.

    @raise Invalid_argument if no task was added. *)
