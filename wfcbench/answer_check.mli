(** Answer checks: every solve or simulate reply is recomputed through the
    {!Wfc_core.Evaluator} oracle.

    The checker rebuilds the schedule from the request's linearization
    strategy ({!Wfc_dag.Linearize.run}) and the checkpoint set the reply
    names, evaluates it with the oracle, and requires the reply's
    E\[makespan\] (and its ratio to T{_∞}) to agree to 1e-9 relative. A
    simulate reply must also hold its own mean inside its 95% interval and
    stay statistically consistent with the analytic expectation. *)

type instance = {
  dag : Wfc_dag.Dag.t;  (** the workflow the request described *)
  model : Wfc_platform.Failure_model.t;
  lin : Wfc_dag.Linearize.strategy;
}

val instance_of_params :
  dag:Wfc_dag.Dag.t -> Wfc_serve.Protocol.solve_params -> instance

val check_solved : instance -> Wfc_serve.Protocol.solved -> (unit, string) result

val check_simulated :
  runs:int ->
  instance ->
  Wfc_serve.Protocol.simulated ->
  (unit, string) result
(** {!check_solved} on the embedded solve, plus: [runs] echoed, the mean
    inside its interval, and [|mean - E| <= 4 * half-width + 1e-9 * E]
    (about eight standard errors). *)

val check_response :
  instance ->
  Wfc_serve.Protocol.request ->
  Wfc_serve.Protocol.response ->
  (float, string) result
(** Dispatch on the reply kind and return the reply's E/T{_∞} ratio. An
    error reply, or a reply of the wrong kind for the request, is an
    [Error]. *)
