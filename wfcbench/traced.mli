(** The traced run: replay a workload's requests in process and measure
    every layer from outside, by wrapping the calls to each layer's public
    function in a span.

    Two passes run over the same requests, interleaved request by request
    (alternating which goes first), each with its own warm-engine cache of
    the daemon's capacity, so hits and misses fall the same way as in the
    daemon:

    + {b plain} — {!Wfc_serve.Server.handle} with metrics off:
      [server.handle_ms], the GC figures, and the byte-identity check of
      every daemon reply against the in-process reply;
    + {b traced} — the same requests through the layers the server calls
      ([Codec], [Workflow_io]/[Pegasus], [Linearize], [Engine_key] +
      [Engine_cache], [Eval_engine.handle], [Heuristics], [Solver_driver],
      [Monte_carlo]), each call wrapped in a [bench.*] span, with [Wfc_obs]
      metrics on. The program's own spans ([heuristics.run], [exact.bnb],
      [driver.*], [local_search.improve], ...) nest inside the bench's.

    Tracing stays on through both passes (re-enabling it would restart the
    trace epoch), so the plain pass records the program's own spans too:
    [trace.overhead_frac] covers only the metrics and the bench's spans, and
    [gc.minor_mb_per_req] includes the allocation of the program's trace
    events. [evaluator.report_ms] times one more oracle evaluation of the
    final schedule, outside the replayed handle span; the server makes that
    oracle call inside [Heuristics.run] or the exact solver, so its cost is
    also inside [heuristics.run_ms] and [solver_driver.solve_ms].

    Requests [0, traced_from) run first in both passes, unmeasured, so the
    caches are in the state the daemon's timed phase saw; the next [traced]
    requests are measured. *)

type result = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  byte_mismatches : int list;
      (** indices whose daemon reply differs from the in-process reply *)
  replay_mismatches : int;
      (** replayed replies that differ from [Server.handle]'s (the replay
          no longer mirrors the server; the layer figures are then suspect) *)
  report : string list;  (** self time per span, human-readable *)
}

val run :
  Workload.t ->
  daemon_payloads:(int, string) Hashtbl.t ->
  e2e_p50_ms:float ->
  trace_prefix:string ->
  result
(** Replay requests [0, traced_from + traced). [daemon_payloads] maps request
    indices to the daemon's reply payloads. The spans are written to
    [trace_prefix ^ ".json"] (Chrome trace events) and
    [trace_prefix ^ ".jsonl"] when the run ends. *)

