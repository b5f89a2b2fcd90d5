(** The three benchmark workloads, generated from the workload seed alone.

    A workload is an infinite, deterministic request sequence: request [i]
    depends only on the seed and [i]. The closed loop sends indices in
    order, so the requests answered in a run always form a prefix of the
    sequence. MTBFs are set as a fixed multiple of the workflow's total
    work ΣW (the paper's MTBF/W axis), which keeps E/T{_∞} in the paper's
    regime of about 1.1–3. No request names an [engine=], so a change of
    the daemon's default kernel shows up. *)

type t = {
  name : string;
  warmup : int;
      (** requests [0, warmup) form the warm-up pass that ends set-up *)
  setups : int;
      (** set-ups per run ([setup_s] is their median): more where a set-up
          is short and dominated by process start-up noise *)
  answer_set : int;
      (** [ratio_mean] averages the answers to requests [0, answer_set),
          a fixed set, so it is deterministic in the seed *)
  traced_from : int;
      (** the traced run replays requests [0, traced_from) unmeasured, so
          its caches reach the state of the daemon's timed phase... *)
  traced : int;
      (** ...then measures requests [traced_from, traced_from + traced) *)
  request : int -> Wfc_serve.Protocol.request;
  instance : int -> Answer_check.instance;
      (** the workflow, failure model and linearization of request [i],
          rebuilt on the client side for the answer check *)
}

val names : string list
(** ["sweep-warm"; "cold-inline"; "deadline-small"]. *)

val make : string -> seed:int -> (t, string) result
(** Generate a workload. Inline workflow texts are generated here, before
    any daemon starts. [Error] on an unknown name. *)

val mix : int -> int -> int -> int
(** [mix seed stream i]: the first draw below [2^30] of a
    {!Wfc_platform.Rng} seeded from the three values — the per-request
    parameters, independent across streams and indices. *)
