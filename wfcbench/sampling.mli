(** Sampling discipline of the benchmark: percentiles that refuse to
    extrapolate, and per-phase request accounting.

    A timing percentile is only reported when the sample holds at least
    {!min_tail} samples beyond it; otherwise {!percentile} fails with a
    message instead of quietly returning the maximum. Every timing is
    reported together with its sample count. *)

val min_tail : int
(** Samples required strictly above a reported percentile (10). *)

val percentile : float array -> float -> (float, string) result
(** [percentile samples p] is the nearest-rank [p]-quantile
    ([0 < p < 1]): the [ceil (p * n)]-th smallest sample. [Error] when
    fewer than {!min_tail} samples lie above that rank, or when the
    sample is empty. The input array is not modified. *)

val median : float array -> float
(** Median (mean of the two middle samples when the count is even);
    [nan] on an empty array. *)

val mean : float array -> float
(** Arithmetic mean; [nan] on an empty array. *)

(** Request accounting for one phase: every request sent ends as exactly
    one success or one failure. *)
type tally = {
  phase : string;
  mutable sent : int;
  mutable succeeded : int;
  mutable failed : int;
}

val tally : string -> tally

val sent : tally -> unit
(** One request went out. *)

val succeeded : tally -> unit
(** One request got a reply that passed every check. *)

val failed : tally -> unit
(** One request failed: an error reply, a transport failure or an
    answer-check violation. *)

val reclassify_failed : tally -> unit
(** A reply first counted as a success was later rejected by an answer
    check: move it from [succeeded] to [failed]. *)

val balanced : tally -> bool
(** [sent = succeeded + failed]. *)

val merge : string -> tally list -> tally

val failed_frac : tally -> float
(** [failed / sent]; [0.] when nothing was sent. *)

val render : tally -> string
(** ["PHASE: sent N = succeeded S + failed F"]. *)

(** {1 Host steal}

    On a shared host the hypervisor can take a virtual machine's CPUs away
    for minutes at a time ("steal", a column of [/proc/stat]), and
    requests then take longer whatever the program does. The timed phase
    marks the machine's cumulative steal about once a second, and the
    latency and throughput figures use only the stretches between marks in
    which little was stolen. *)

type mark = {
  at : float;  (** wall clock, seconds *)
  stolen : float;  (** cumulative steal, seconds *)
}

val steal_free_spans : tolerance:float -> mark list -> (float * float) list
(** The windows between consecutive marks (in time order) in which at
    most [tolerance] seconds were stolen per wall-clock second, with
    adjacent windows joined: disjoint [(start, end)] spans in time order. *)

val inside : (float * float) list -> float * float -> bool
(** [inside spans (t0, t1)]: the interval lies within one span. *)

val span_seconds : (float * float) list -> float
(** Total length of the spans. *)
