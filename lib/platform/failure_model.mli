(** Exponential failure model of the platform (Section 3 of the paper).

    The [p] processors each fail independently with exponentially distributed
    inter-arrival times of rate [lambda_proc]; since every task runs on all
    processors, the platform behaves as a single macro-processor of rate
    [lambda = p * lambda_proc]. After each failure the platform is unavailable
    for a constant downtime [d] before execution can resume. *)

type t = private {
  lambda : float;  (** macro-processor failure rate (1 / MTBF), >= 0 *)
  downtime : float;  (** constant downtime [D] after each failure, >= 0 *)
}

val make : lambda:float -> ?downtime:float -> unit -> t
(** [make ~lambda ()] builds a failure model. [downtime] defaults to [0.].

    @raise Invalid_argument if [lambda < 0], [downtime < 0] or either is not
    finite. *)

val of_mtbf : mtbf:float -> ?downtime:float -> unit -> t
(** [of_mtbf ~mtbf ()] is [make ~lambda:(1. /. mtbf) ()].

    @raise Invalid_argument if [mtbf <= 0]. *)

val of_platform :
  processors:int -> proc_mtbf:float -> ?downtime:float -> unit -> t
(** [of_platform ~processors:p ~proc_mtbf ()] is the macro-processor model
    with [lambda = p /. proc_mtbf]: the MTBF of the whole platform is
    [proc_mtbf /. p].

    @raise Invalid_argument if [processors <= 0] or [proc_mtbf <= 0]. *)

val fail_free : t
(** The model with [lambda = 0]: no failures ever occur. *)

val mtbf : t -> float
(** [mtbf m] is [1 /. m.lambda] ([infinity] when [lambda = 0]). *)

val expected_exec_time : t -> work:float -> checkpoint:float -> recovery:float -> float
(** [expected_exec_time m ~work:w ~checkpoint:c ~recovery:r] is Equation (1)
    of the paper:
    [E\[t(w; c; r)\] = e^{lambda r} (1/lambda + D) (e^{lambda (w+c)} - 1)],
    the expected time to complete [w] seconds of work followed by a
    checkpoint of [c] seconds when every retry after a failure is preceded by
    a recovery of [r] seconds. Failures may strike during work, checkpoint
    and recovery alike. For [lambda = 0] this is exactly [w +. c].

    The result may be [infinity] when [lambda *. (w +. c)] is so large that
    the expectation overflows; callers compare such schedules as "worse than
    everything finite".

    @raise Invalid_argument on negative or NaN arguments. *)

val expected_time_lost : t -> work:float -> float
(** [expected_time_lost m ~work:w] is [E\[tlost(w)\] = 1/lambda - w /
    (e^{lambda w} - 1)], the expected time elapsed before the failure given
    that a failure strikes within an execution of [w] seconds.

    @raise Invalid_argument if [lambda = 0] (the event has probability 0). *)

val success_probability : t -> work:float -> float
(** [success_probability m ~work:w] is [e^{-lambda w}], the probability that
    [w] seconds of execution complete without failure. *)

type vec = Float.Array.t
(** Unboxed float buffer, the storage of the evaluation kernel. It lives on
    the OCaml heap, so the GC sizes its pacing by it (a Bigarray would be
    off-heap memory the GC only learns about through a custom-block
    estimate). *)

val expm1_span : t -> lost:vec -> u:vec -> x:vec -> lo:int -> len:int -> unit
(** [expm1_span m ~lost ~u ~x ~lo ~len] fills, for [j] in
    [\[lo, lo + len)], [u.(j) = expm1 (-lambda * lost.(j))] and
    [x.(j) = expm1 (lambda * lost.(j))] — the survival and expectation
    transforms of a replay value, batched row-wise. Allocation-free.

    @raise Invalid_argument if the span exceeds any buffer. *)

val pp : Format.formatter -> t -> unit
