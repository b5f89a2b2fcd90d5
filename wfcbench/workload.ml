module Dag = Wfc_dag.Dag
module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module Evaluator = Wfc_core.Evaluator
module Pr = Wfc_serve.Protocol
module AC = Answer_check

type t = {
  name : string;
  warmup : int;
  setups : int;
  answer_set : int;
  traced_from : int;
  traced : int;
  request : int -> Pr.request;
  instance : int -> AC.instance;
}

let names = [ "sweep-warm"; "cold-inline"; "deadline-small" ]

let mix seed stream i =
  Wfc_platform.Rng.int (Wfc_platform.Rng.create ((((seed * 7919) + stream) * 1_000_003) + i)) (1 lsl 30)

let cost = CM.Proportional 0.1
let generate family ~n ~seed = CM.apply cost (P.generate family ~n ~seed)

let parse line =
  match Pr.request_of_line line with
  | Ok r -> r
  | Error m -> invalid_arg (Printf.sprintf "workload request %S: %s" line m)

let params = function
  | Pr.Solve p | Pr.Simulate { params = p; _ } -> p
  | _ -> invalid_arg "Workload.params: not a solve or simulate request"

(* MTBF/ΣW per family, chosen so E/T_inf lands around 1.3–1.9 *)
let ratio_of = function
  | P.Montage | P.Ligo | P.Cybershake | P.Genome -> 0.05
  | P.Sipht -> 0.2

(* A generated workflow with its MTBF fixed relative to its total work. *)
type keyed = { family : P.family; n : int; gseed : int; dag : Dag.t; mtbf : float }

let keyed family ~n ~gseed ~ratio =
  let dag = generate family ~n ~seed:gseed in
  { family; n; gseed; dag; mtbf = ratio *. Evaluator.fail_free_time dag }

let generated_line cmd k extra =
  Printf.sprintf "%s family=%s n=%d seed=%d mtbf=%.17g %s" cmd
    (String.lowercase_ascii (P.family_name k.family))
    k.n k.gseed k.mtbf extra

let instance_of dag req = AC.instance_of_params ~dag (params req)

(* Repeated keys: twenty generated workflows, four per Pegasus family,
   served round-robin as simulate requests: an exhaustive CkptW sweep
   (n - 1 evaluations) on the warm engine, then a Monte Carlo check of the
   winning schedule with a fresh mcseed. The sweep takes a little over half
   of a request and the simulator the rest, so both a kernel and a
   simulator change show. Twenty keys spread the per-key costs densely
   enough that the latency median does not jump between key clusters from
   run to run. *)
let sweep_warm seed =
  let families = [| P.Montage; P.Ligo; P.Cybershake; P.Genome; P.Sipht |] in
  let size = function P.Genome | P.Sipht -> 260 | _ -> 200 in
  let keys =
    Array.init 20 (fun j ->
        let family = families.(j mod 5) in
        keyed family ~n:(size family) ~gseed:(mix seed 1 j) ~ratio:(ratio_of family))
  in
  let k = Array.length keys in
  let request i =
    parse
      (generated_line "simulate" keys.(i mod k)
         (Printf.sprintf "grid=0 runs=1000 mcseed=%d" (mix seed 6 i)))
  in
  {
    name = "sweep-warm";
    warmup = k;
    setups = 3;
    answer_set = k;
    traced_from = k;
    traced = k;
    request;
    instance = (fun i -> instance_of keys.(i mod k).dag (request i));
  }

(* Distinct keys: a pool of 40 n=800 workflows shipped inline as WfCommons
   JSON, each pool cycle at a slightly different MTBF, so every (workflow,
   model) cache key is new; with 40 > the daemon's 32-entry LRU, every
   lookup misses and every check-in past capacity evicts. *)
let cold_inline seed =
  let families = [| P.Montage; P.Ligo; P.Cybershake; P.Genome |] in
  let pool = 40 in
  let flows =
    Array.init pool (fun j ->
        let family = families.(j mod 4) in
        let k = keyed family ~n:800 ~gseed:(mix seed 2 j) ~ratio:(ratio_of family) in
        let name = Printf.sprintf "cold-%02d.json" j in
        (k, name, Wfc_io.Json.to_string (Wfc_io.Wfcommons.to_json ~name k.dag)))
  in
  let request i =
    let k, name, text = flows.(i mod pool) in
    let cycle = i / pool in
    Pr.Solve
      {
        Pr.default_solve with
        Pr.workflow = Pr.Inline { name; text; cost };
        mtbf = k.mtbf *. (1. +. (0.01 *. float_of_int cycle));
        grid = 2;
      }
  in
  {
    name = "cold-inline";
    warmup = 4;
    setups = 7;
    answer_set = pool;
    (* past the first pool cycle, where the LRU is full and every
       check-in evicts, as in the timed phase *)
    traced_from = pool;
    traced = 36;
    request;
    instance =
      (fun i ->
        let k, _, _ = flows.(i mod pool) in
        instance_of k.dag (request i));
  }

(* Tiny distinct instances with a deadline worth 1k–20k branch-and-bound
   nodes at the daemon's calibration rate, so the exact tier runs. *)
let deadline_small seed =
  let families = [| P.Montage; P.Ligo; P.Cybershake; P.Genome; P.Sipht |] in
  let deadlines = [| 0.05; 0.2; 0.5; 1.0 |] in
  let key i =
    let h = mix seed 3 i in
    let family = families.(h mod 5) in
    keyed family ~n:(14 + (h / 5 mod 11)) ~gseed:(mix seed 4 i) ~ratio:0.5
  in
  let request_of i k =
    parse
      (generated_line "solve" k
         (Printf.sprintf "deadline=%g" deadlines.(i mod Array.length deadlines)))
  in
  {
    name = "deadline-small";
    warmup = 16;
    setups = 15;
    answer_set = 1000;
    traced_from = 16;
    traced = 160;
    request = (fun i -> request_of i (key i));
    instance =
      (fun i ->
        let k = key i in
        instance_of k.dag (request_of i k));
  }

let make name ~seed =
  match name with
  | "sweep-warm" -> Ok (sweep_warm seed)
  | "cold-inline" -> Ok (cold_inline seed)
  | "deadline-small" -> Ok (deadline_small seed)
  | _ ->
      Error
        (Printf.sprintf "unknown workload %S (%s)" name (String.concat ", " names))
