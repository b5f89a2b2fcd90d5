module Pr = Wfc_serve.Protocol
module Codec = Wfc_serve.Codec

type t = { pid : int; socket : string }

let live : int list ref = ref []

let spawn ~wfc ~socket ~log =
  if Sys.file_exists socket then Error (Printf.sprintf "socket path %s already exists" socket)
  else
    match Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 with
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "cannot open %s: %s" log (Unix.error_message e))
    | logfd ->
        let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
        let r =
          match
            Unix.create_process wfc [| wfc; "serve"; "--socket"; socket |] devnull logfd
              logfd
          with
          | pid ->
              live := pid :: !live;
              Ok { pid; socket }
          | exception Unix.Unix_error (e, _, _) ->
              Error (Printf.sprintf "cannot start %s: %s" wfc (Unix.error_message e))
        in
        Unix.close devnull;
        Unix.close logfd;
        r

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let reaped pid = live := List.filter (( <> ) pid) !live

let connect t =
  let give_up = Unix.gettimeofday () +. 30. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX t.socket) with
    | () -> Ok fd
    | exception Unix.Unix_error (((Unix.ENOENT | Unix.ECONNREFUSED) as e), _, _) ->
        Unix.close fd;
        if exited t.pid then (
          reaped t.pid;
          Error "daemon exited before listening")
        else if Unix.gettimeofday () > give_up then
          Error (Printf.sprintf "daemon not listening: %s" (Unix.error_message e))
        else (
          Unix.sleepf 0.005;
          go ())
    | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        Error (Printf.sprintf "cannot connect to %s: %s" t.socket (Unix.error_message e))
  in
  go ()

let vm_hwm_kb t =
  match open_in (Printf.sprintf "/proc/%d/status" t.pid) with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match String.split_on_char ':' line with
            | [ "VmHWM"; v ] -> (
                match String.split_on_char ' ' (String.trim v) with
                | kb :: _ -> int_of_string_opt kb
                | [] -> None)
            | _ -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* /proc/stat counts in USER_HZ ticks, 100 per second on Linux *)
let host_steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic -> (
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match List.filter (( <> ) "") (String.split_on_char ' ' (input_line ic)) with
          | "cpu" :: _user :: _nice :: _system :: _idle :: _iowait :: _irq :: _softirq :: steal :: _
            ->
              Option.map (fun t -> float_of_int t /. 100.) (int_of_string_opt steal)
          | _ -> None
          | exception End_of_file -> None))

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let read_reply fd =
  match Codec.read_frame (fun b o l -> Unix.read fd b o l) with
  | Ok (Some payload) -> (
      match Codec.decode_response payload with
      | Ok (id, resp) -> Ok (id, payload, resp)
      | Error m -> Error ("undecodable reply: " ^ m))
  | Ok None -> Error "connection closed"
  | Error m -> Error m

let wait_exit pid ~timeout =
  let give_up = Unix.gettimeofday () +. timeout in
  let rec go () =
    if exited pid then true
    else if Unix.gettimeofday () > give_up then false
    else (
      Unix.sleepf 0.01;
      go ())
  in
  go ()

let force_kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  reaped pid

let stop t conns =
  let said_bye =
    match conns with
    | [] -> Error "no connection to send shutdown on"
    | fd :: _ -> (
        match
          write_all fd (Codec.frame (Codec.encode_request ~id:0L Pr.Shutdown));
          read_reply fd
        with
        | Ok (_, _, Pr.Bye) -> Ok ()
        | Ok _ -> Error "shutdown not acknowledged"
        | Error m -> Error ("shutdown: " ^ m)
        | exception Unix.Unix_error (e, _, _) -> Error ("shutdown: " ^ Unix.error_message e))
  in
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
  if wait_exit t.pid ~timeout:20. then (
    reaped t.pid;
    said_bye)
  else (
    force_kill t.pid;
    Error "daemon did not exit after shutdown; killed")

let kill_all () = List.iter force_kill !live

type reply = {
  index : int;
  payload : string;
  response : Pr.response;
  sent_at : float;
  latency : float;
}

type slot = { fd : Unix.file_descr; mutable inflight : (int * float) option; mutable dead : bool }

let closed_loop ~conns ~request ~next tally =
  let slots = List.map (fun fd -> { fd; inflight = None; dead = false }) conns in
  let replies = ref [] in
  let exhausted = ref false in
  let fail slot =
    Sampling.failed tally;
    slot.inflight <- None;
    slot.dead <- true
  in
  let send slot =
    if not !exhausted then
      match next () with
      | None -> exhausted := true
      | Some i -> (
          let frame = Codec.frame (Codec.encode_request ~id:(Int64.of_int i) (request i)) in
          Sampling.sent tally;
          let t0 = Unix.gettimeofday () in
          slot.inflight <- Some (i, t0);
          try write_all slot.fd frame with Unix.Unix_error _ -> fail slot)
  in
  let receive slot =
    match slot.inflight with
    | None -> ()
    | Some (i, t0) -> (
        match read_reply slot.fd with
        | exception Unix.Unix_error _ -> fail slot
        | Error _ -> fail slot
        | Ok (id, _, _) when id <> Int64.of_int i -> fail slot
        | Ok (_, payload, response) ->
            let latency = Unix.gettimeofday () -. t0 in
            slot.inflight <- None;
            if Pr.is_error response then Sampling.failed tally else Sampling.succeeded tally;
            replies := { index = i; payload; response; sent_at = t0; latency } :: !replies)
  in
  let rec loop () =
    List.iter (fun s -> if (not s.dead) && s.inflight = None then send s) slots;
    let busy = List.filter (fun s -> s.inflight <> None) slots in
    if busy <> [] then begin
      (match Unix.select (List.map (fun s -> s.fd) busy) [] [] 60. with
      | [], _, _ -> List.iter fail busy
      | ready, _, _ -> List.iter (fun s -> if List.mem s.fd ready then receive s) busy
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  List.rev !replies
