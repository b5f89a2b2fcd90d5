(* Serving-layer closed-loop bench: drive Server.handle in process with a
   mixed solve/simulate workload and write BENCH_serve.json.

   Half correctness guard, half latency measurement:
   - responses must be byte-identical (exact wire bytes, not the rounded
     rendering) with the warm-engine cache on and off, and across
     daemon-side domain counts 1 and 4 — the serving layer's core
     regression contract;
   - the warm server's median latency must be strictly below the cold
     server's, i.e. the LRU actually buys something on a workload that
     re-solves the same keyed workflows.

   Run with: FIG=serve dune exec bench/main.exe
   Knobs:    SERVE_REPS  repetitions per distinct request (default 20) *)

module Server = Wfc_serve.Server
module Pr = Wfc_serve.Protocol
module Codec = Wfc_serve.Codec
module Json = Wfc_io.Json

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string s with Failure _ -> default)
  | None -> default

(* A few distinct cache keys (family x size x MTBF), re-solved round-robin:
   a plausible "same workflows, parameter studies" service load where warm
   engines pay off. At n ~ 800 handle construction (buffer layout +
   precompute) is a substantial fraction of a request, so the cache's effect is well above timer noise;
   a small grid keeps the per-request sweep from drowning it. *)
let workload reps =
  let lines =
    [
      "solve family=montage n=800 mtbf=500 grid=4 engine=flat";
      "solve family=cybershake n=800 mtbf=200 grid=4 engine=flat";
      "solve family=ligo n=750 mtbf=800 grid=4 engine=flat";
      "solve family=genome n=700 mtbf=5000 grid=4 engine=flat";
      "solve family=sipht n=750 mtbf=300 grid=4 engine=flat";
    ]
  in
  let parse l =
    match Pr.request_of_line l with
    | Ok r -> r
    | Error m -> failwith (Printf.sprintf "bad bench request %S: %s" l m)
  in
  let reqs = List.map parse lines in
  (List.length reqs, List.concat (List.init reps (fun _ -> reqs)))

(* exact response bytes, not the 2-decimal rendering *)
let bytes_of r = Codec.encode_response ~id:0L r

let drive config reqs =
  let t = Server.create ~config () in
  let lat = Array.make (List.length reqs) 0. in
  let t0 = Unix.gettimeofday () in
  let responses =
    List.mapi
      (fun i req ->
        let s = Unix.gettimeofday () in
        let r = Server.handle t req in
        lat.(i) <- Unix.gettimeofday () -. s;
        (match r with
        | Pr.Error { message; _ } -> failwith ("bench request failed: " ^ message)
        | _ -> ());
        bytes_of r)
      reqs
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (responses, lat, elapsed)

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(Int.min (n - 1) (int_of_float (p *. float_of_int n)))

let summary lat elapsed =
  let sorted = Array.copy lat in
  Array.sort compare sorted;
  let n = Array.length sorted in
  ( float_of_int n /. elapsed,
    1e3 *. percentile sorted 0.5,
    1e3 *. percentile sorted 0.99 )

let run () =
  print_endline "== serving layer: warm cache vs cold (FIG=serve) ==";
  let reps = getenv_int "SERVE_REPS" 10 in
  let distinct, reqs = workload reps in
  let n = List.length reqs in
  let cold_cfg = { Server.default_config with cache_size = 0 } in
  let warm_cfg = Server.default_config in
  (* one throwaway pass to pay allocation/code warmup outside the timings *)
  ignore (drive cold_cfg (snd (workload 1)));
  let cold, cold_lat, cold_t = drive cold_cfg reqs in
  let warm, warm_lat, warm_t = drive warm_cfg reqs in
  let dom4, _, _ =
    drive { warm_cfg with Server.domains = 4; workers = 4 } reqs
  in
  let ok_bytes = cold = warm && warm = dom4 in
  if not ok_bytes then begin
    print_endline
      "FAIL: responses are not byte-identical across cache/domain configs";
    exit 1
  end;
  let cold_qps, cold_p50, cold_p99 = summary cold_lat cold_t in
  let warm_qps, warm_p50, warm_p99 = summary warm_lat warm_t in
  Printf.printf "%d requests, %d distinct keys\n" n distinct;
  Printf.printf "  cold: %7.1f req/s  p50 %6.3f ms  p99 %6.3f ms\n" cold_qps
    cold_p50 cold_p99;
  Printf.printf "  warm: %7.1f req/s  p50 %6.3f ms  p99 %6.3f ms\n" warm_qps
    warm_p50 warm_p99;
  Printf.printf "  p50 speedup: %.2fx\n" (cold_p50 /. warm_p50);
  if not (warm_p50 < cold_p50) then begin
    print_endline "FAIL: warm median latency is not below cold";
    exit 1
  end;
  let part name qps p50 p99 =
    ( name,
      Json.Assoc
        [ ("qps", Json.Number qps); ("p50_ms", Json.Number p50);
          ("p99_ms", Json.Number p99) ] )
  in
  let doc =
    Json.Assoc
      [ ("bench", Json.String "serve");
        ("requests", Json.Number (float_of_int n));
        part "cold" cold_qps cold_p50 cold_p99;
        part "warm" warm_qps warm_p50 warm_p99;
        ("p50_speedup", Json.Number (cold_p50 /. warm_p50));
        ("byte_identical", Json.Bool true) ]
  in
  let oc = open_out "BENCH_serve.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  print_endline
    "PASS: byte-identical across cache on/off and domains 1|4, warm median \
     below cold; wrote BENCH_serve.json"
