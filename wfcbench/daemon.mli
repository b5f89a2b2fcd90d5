(** A [wfc serve] daemon in its own process, and the closed loop that
    drives it.

    The daemon is started as users start it — [wfc serve --socket PATH]
    with its default workers, engine cache and admission queue. The loop
    keeps a fixed set of binary-codec connections; each connection sends
    its next request only after the reply to the previous one has arrived
    (a closed loop: a slow daemon receives less load). *)

type t

val spawn : wfc:string -> socket:string -> log:string -> (t, string) result
(** Start the daemon. The socket path must not exist yet. *)

val connect : t -> (Unix.file_descr, string) result
(** Connect, polling every 5 ms until the daemon listens (for at most
    30 s); fails early when the daemon process has exited. *)

val vm_hwm_kb : t -> int option
(** The daemon's peak resident set ([VmHWM] in [/proc/PID/status]). *)

val host_steal_s : unit -> float option
(** Seconds the hypervisor has taken this machine's CPUs away since boot,
    summed over CPUs (the steal column of [/proc/stat]); [None] where
    there is no such column. *)

val stop : t -> Unix.file_descr list -> (unit, string) result
(** Send [shutdown] on the first connection, close every connection and
    wait for the process to exit (killing it after 20 s). *)

val kill_all : unit -> unit
(** Kill and reap every daemon still running (an exit path). *)

type reply = {
  index : int;  (** request index in the workload sequence *)
  payload : string;  (** the reply's binary payload, exactly as received *)
  response : Wfc_serve.Protocol.response;
  sent_at : float;  (** wall clock at the write of the request *)
  latency : float;  (** seconds from the write of the request to the decoded reply *)
}

val closed_loop :
  conns:Unix.file_descr list ->
  request:(int -> Wfc_serve.Protocol.request) ->
  next:(unit -> int option) ->
  Sampling.tally ->
  reply list
(** Run the loop until [next] returns [None] and every request in flight
    has answered. Each request sent is counted in the tally as a success
    (a non-error reply) or a failure (an error reply, a transport
    failure, a reply with another request's id, or 60 s without any
    reply). A connection that fails is dropped; the loop continues on the
    others. Error replies are returned too; failed transports are not. Replies are
    returned in completion order. *)
