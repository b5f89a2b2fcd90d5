(* Differential harness for the evaluation kernel: after any interleaving
   of flips, batch assignments, rollbacks, commits and prefix queries,
   Flat_engine must agree with the Evaluator oracle at 1e-9, hold replay
   entries bit-identical to Lost_work, and answer every query with the bits
   a freshly built engine on the same flags gives. The oracle stays the
   single source of truth; the kernel earns its keep purely on speed. *)

open Wfc_core
module Builders = Wfc_dag.Builders
module FM = Wfc_platform.Failure_model

let rel_close a b = Wfc_test_util.close ~eps:1e-9 a b

let oracle model g ~order flags =
  Evaluator.expected_makespan model g
    (Schedule.make g ~order:(Array.copy order) ~checkpointed:(Array.copy flags))

let oracle_prefix model g ~order flags upto =
  let r =
    Evaluator.evaluate model g
      (Schedule.make g ~order:(Array.copy order) ~checkpointed:(Array.copy flags))
  in
  let acc = ref 0. in
  for j = 0 to upto - 1 do
    acc := !acc +. r.Evaluator.per_position.(j)
  done;
  !acc

(* a freshly built engine holding [flags]: the path-independence reference *)
let fresh model g ~order flags = Flat_engine.create ~flags model g ~order

(* ---- differential qcheck suite ------------------------------------------ *)

type op =
  | Flip of int
  | Set_all of bool array
  | Rollback
  | Commit
  | Prefix of int
  | Quiet_flip of int

let gen_scenario =
  let open QCheck2.Gen in
  let* g = Wfc_test_util.gen_dag ~max_n:9 () in
  let n = Wfc_dag.Dag.n_tasks g in
  let* model_idx = int_range 0 (List.length Wfc_test_util.models - 1) in
  let* ops =
    list_size (int_range 1 25)
      (frequency
         [
           (5, map (fun v -> Flip v) (int_range 0 (n - 1)));
           (2, map (fun v -> Quiet_flip v) (int_range 0 (n - 1)));
           (2, map (fun f -> Set_all f) (array_repeat n bool));
           (1, return Rollback);
           (1, return Commit);
           (2, map (fun i -> Prefix i) (int_range 0 n));
         ])
  in
  return (g, model_idx, ops)

let print_scenario (g, model_idx, ops) =
  Format.asprintf "%a model#%d ops[%s]" Wfc_dag.Dag.pp_stats g model_idx
    (String.concat "; "
       (List.map
          (function
            | Flip v -> Printf.sprintf "flip %d" v
            | Quiet_flip v -> Printf.sprintf "qflip %d" v
            | Set_all f ->
                Printf.sprintf "set %s"
                  (String.concat ""
                     (List.map (fun b -> if b then "1" else "0")
                        (Array.to_list f)))
            | Rollback -> "rollback"
            | Commit -> "commit"
            | Prefix i -> Printf.sprintf "prefix %d" i)
          ops))

let apply flat = function
  | Flip v -> ignore (Flat_engine.flip flat v)
  | Quiet_flip v -> Flat_engine.flip_quiet flat v
  | Set_all f -> Flat_engine.set_flags flat f
  | Rollback -> Flat_engine.rollback flat
  | Commit -> Flat_engine.commit flat
  | Prefix upto -> ignore (Flat_engine.prefix_makespan flat ~upto)

let run_scenario (g, model_idx, ops) =
  let model = List.nth Wfc_test_util.models model_idx in
  let order = Wfc_dag.Dag.topological_order g in
  let flat = Flat_engine.create model g ~order in
  let committed = ref (Flat_engine.flags flat) in
  List.iter
    (fun op ->
      (match op with
      | Flip v ->
          let mf = Flat_engine.flip flat v in
          if mf <> Flat_engine.makespan flat then
            Alcotest.failf "flip %d: returned %.17g, makespan %.17g" v mf
              (Flat_engine.makespan flat)
      | Quiet_flip v ->
          Flat_engine.flip_quiet flat v;
          let mf = Flat_engine.current_makespan flat in
          if mf <> Flat_engine.makespan flat then
            Alcotest.failf "quiet flip %d: current %.17g, makespan %.17g" v mf
              (Flat_engine.makespan flat)
      | Prefix upto ->
          (* the partial-evaluation cursor must not corrupt later full
             queries; also pin its value against a fresh engine's and the
             oracle's prefix sums *)
          let pf = Flat_engine.prefix_makespan flat ~upto in
          let flags = Flat_engine.flags flat in
          let pr = Flat_engine.prefix_makespan (fresh model g ~order flags) ~upto in
          if pf <> pr then
            Alcotest.failf "prefix %d: flat %.17g <> fresh %.17g" upto pf pr;
          let po = oracle_prefix model g ~order flags upto in
          if not (rel_close pf po) then
            Alcotest.failf "prefix %d: flat %.17g oracle %.17g" upto pf po
      | Commit ->
          Flat_engine.commit flat;
          committed := Flat_engine.flags flat
      | Rollback ->
          Flat_engine.rollback flat;
          if Flat_engine.flags flat <> !committed then
            Alcotest.fail "rollback did not restore committed flags"
      | op -> apply flat op);
      let mf = Flat_engine.makespan flat in
      let flags = Flat_engine.flags flat in
      let mr = Flat_engine.makespan (fresh model g ~order flags) in
      if mf <> mr then
        Alcotest.failf "makespan: flat %.17g <> fresh %.17g" mf mr;
      let m' = oracle model g ~order flags in
      if not (rel_close mf m') then
        Alcotest.failf "flat %.17g oracle %.17g" mf m')
    ops;
  true

let differential =
  Wfc_test_util.qtest ~count:500
    "any flip/set/rollback interleaving: flat = fresh engine (bitwise) = oracle"
    gen_scenario print_scenario run_scenario

(* the search-facing handle over the kernel: the same interleavings driven
   through the [Eval_engine.h_*] operations the search loops call must
   agree with the oracle, and a rollback must restore the committed flags *)
let handle_differential =
  Wfc_test_util.qtest ~count:500 "any flip/set/rollback interleaving = oracle"
    gen_scenario print_scenario (fun (g, model_idx, ops) ->
      let model = List.nth Wfc_test_util.models model_idx in
      let order = Wfc_dag.Dag.topological_order g in
      let h = Eval_engine.handle Eval_engine.Flat model g ~order in
      let committed = ref (Eval_engine.h_flags h) in
      List.iter
        (fun op ->
          (match op with
          | Flip v | Quiet_flip v ->
              let m = Eval_engine.h_flip h v in
              if m <> Eval_engine.h_makespan h then
                Alcotest.failf "h_flip %d: returned %.17g, makespan %.17g" v m
                  (Eval_engine.h_makespan h)
          | Set_all f -> Eval_engine.h_set_flags h f
          | Commit ->
              Eval_engine.h_commit h;
              committed := Eval_engine.h_flags h
          | Rollback ->
              Eval_engine.h_rollback h;
              if Eval_engine.h_flags h <> !committed then
                Alcotest.fail "rollback did not restore committed flags"
          | Prefix upto ->
              let p = Eval_engine.h_prefix_makespan h ~upto in
              let po = oracle_prefix model g ~order (Eval_engine.h_flags h) upto in
              if not (rel_close p po) then
                Alcotest.failf "prefix %d: handle %.17g oracle %.17g" upto p po);
          let m = Eval_engine.h_makespan h in
          let m' = oracle model g ~order (Eval_engine.h_flags h) in
          if not (rel_close m m') then
            Alcotest.failf "handle %.17g oracle %.17g" m m')
        ops;
      true)

let vectors_bitwise =
  Wfc_test_util.qtest ~count:200
    "per-position and fault vectors bitwise = fresh engine" gen_scenario
    print_scenario (fun (g, model_idx, ops) ->
      let model = List.nth Wfc_test_util.models model_idx in
      let order = Wfc_dag.Dag.topological_order g in
      let flat = Flat_engine.create model g ~order in
      List.iter (apply flat) ops;
      let r = fresh model g ~order (Flat_engine.flags flat) in
      Flat_engine.per_position flat = Flat_engine.per_position r
      && Flat_engine.fault_probability flat = Flat_engine.fault_probability r
      && Flat_engine.suffix_makespan flat ~from:0
         = Flat_engine.suffix_makespan r ~from:0)

(* per-position and fault-probability vectors must agree with the oracle's
   too, not just their sum *)
let vectors_against_oracle =
  Wfc_test_util.qtest ~count:200 "per-position and fault vectors = oracle"
    gen_scenario print_scenario (fun (g, model_idx, ops) ->
      let model = List.nth Wfc_test_util.models model_idx in
      let order = Wfc_dag.Dag.topological_order g in
      let flat = Flat_engine.create model g ~order in
      List.iter (apply flat) ops;
      let r =
        Evaluator.evaluate model g
          (Schedule.make g ~order:(Array.copy order)
             ~checkpointed:(Flat_engine.flags flat))
      in
      let pp = Flat_engine.per_position flat in
      let fp = Flat_engine.fault_probability flat in
      Array.iteri
        (fun i e ->
          if not (rel_close e r.Evaluator.per_position.(i)) then
            Alcotest.failf "per_position.(%d): %.17g <> %.17g" i e
              r.Evaluator.per_position.(i))
        pp;
      Array.iteri
        (fun i p ->
          if not (rel_close p r.Evaluator.fault_probability.(i)) then
            Alcotest.failf "fault_probability.(%d): %.17g <> %.17g" i p
              r.Evaluator.fault_probability.(i))
        fp;
      true)

(* the kernel's replay entries must be Lost_work's, bit for bit, at
   creation and after any mutation sequence — including the structurally
   zero head of each column, which the kernel does not store *)
let lost_entries_bitwise =
  Wfc_test_util.qtest ~count:200 "replay matrix bitwise = Lost_work"
    QCheck2.Gen.(
      let* g = Wfc_test_util.gen_dag ~max_n:9 () in
      let n = Wfc_dag.Dag.n_tasks g in
      let* bits = int_range 0 max_int in
      let* ops =
        list_size (int_range 0 12)
          (frequency
             [
               (4, map (fun v -> Flip v) (int_range 0 (n - 1)));
               (2, map (fun f -> Set_all f) (array_repeat n bool));
               (1, return Rollback);
               (1, return Commit);
             ])
      in
      return (g, bits, ops))
    (fun (g, bits, ops) ->
      Printf.sprintf "%s bits=%d" (print_scenario (g, 0, ops)) bits)
    (fun (g, bits, ops) ->
      let n = Wfc_dag.Dag.n_tasks g in
      let order = Wfc_dag.Dag.topological_order g in
      let flags = Array.init n (fun v -> (bits lsr (v mod 30)) land 1 = 1) in
      let model = List.hd Wfc_test_util.models in
      let flat = Flat_engine.create ~flags model g ~order in
      let matches () =
        let lw =
          Lost_work.compute g
            (Schedule.make g ~order ~checkpointed:(Flat_engine.flags flat))
        in
        let ok = ref true in
        for i = 0 to n - 1 do
          for k = 0 to i do
            if
              Flat_engine.lost_entry flat ~last_fault:k ~position:i
              <> Lost_work.replay_time lw ~last_fault:k ~position:i
            then ok := false
          done
        done;
        !ok
      in
      matches ()
      && List.for_all
           (fun op ->
             apply flat op;
             matches ())
           ops)

(* ---- structured fixed cases ---- *)

let flip_walk model g =
  let order = Wfc_dag.Dag.topological_order g in
  let n = Wfc_dag.Dag.n_tasks g in
  let flat = Flat_engine.create model g ~order in
  let check msg =
    let mf = Flat_engine.makespan flat in
    let mr = Flat_engine.makespan (fresh model g ~order (Flat_engine.flags flat)) in
    if mf <> mr then Alcotest.failf "%s: flat %.17g <> fresh %.17g" msg mf mr;
    let m' = oracle model g ~order (Flat_engine.flags flat) in
    if not (rel_close mf m') then
      Alcotest.failf "%s: flat %.17g oracle %.17g" msg mf m'
  in
  check "initial";
  (* walk every single flip on and off *)
  for v = 0 to n - 1 do
    Flat_engine.flip_quiet flat v;
    check (Printf.sprintf "flip on %d" v)
  done;
  for v = n - 1 downto 0 do
    Flat_engine.flip_quiet flat v;
    check (Printf.sprintf "flip off %d" v)
  done

let test_chain () =
  let g =
    Builders.chain
      ~weights:[| 6.; 2.; 8.; 4.; 5.; 3. |]
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ~recovery_cost:(fun _ w -> 0.15 *. w)
      ()
  in
  List.iter (fun model -> flip_walk model g) Wfc_test_util.models

let test_fork_and_join () =
  let fork =
    Builders.fork ~source_weight:5. ~sink_weights:[| 1.; 2.; 3.; 4. |]
      ~checkpoint_cost:(fun _ w -> 0.3 *. w)
      ~recovery_cost:(fun _ w -> 0.3 *. w)
      ()
  in
  let join =
    Builders.join
      ~source_weights:[| 4.; 3.; 2.; 1. |]
      ~sink_weight:6.
      ~checkpoint_cost:(fun _ w -> 0.1 *. w)
      ~recovery_cost:(fun _ w -> 0.1 *. w)
      ()
  in
  List.iter
    (fun model ->
      flip_walk model fork;
      flip_walk model join)
    Wfc_test_util.models

let test_single_task () =
  let g = Builders.chain ~weights:[| 7. |] ~checkpoint_cost:(fun _ _ -> 1.5) () in
  List.iter (fun model -> flip_walk model g) Wfc_test_util.models

let test_lambda_zero () =
  (* failure-free platform: makespan is exactly the flagged work sum *)
  let g =
    Builders.chain
      ~weights:[| 2.; 3.; 4. |]
      ~checkpoint_cost:(fun _ _ -> 0.5)
      ()
  in
  let model = FM.make ~lambda:0. () in
  let engine = Flat_engine.create model g ~order:[| 0; 1; 2 |] in
  Alcotest.(check (float 1e-12)) "no flags" 9. (Flat_engine.makespan engine);
  ignore (Flat_engine.flip engine 1);
  Alcotest.(check (float 1e-12)) "one flag" 9.5 (Flat_engine.makespan engine);
  Flat_engine.set_flags engine [| true; true; true |];
  Alcotest.(check (float 1e-12)) "all flags" 10.5 (Flat_engine.makespan engine)

let test_rollback_is_bitwise () =
  (* same flags reached by different paths give bit-identical makespans *)
  let g =
    Builders.fork_join ~source_weight:4. ~middle_weights:[| 2.; 6. |]
      ~sink_weight:3.
      ~checkpoint_cost:(fun _ w -> 0.25 *. w)
      ()
  in
  let model = FM.make ~lambda:0.05 ~downtime:0.3 () in
  let order = Wfc_dag.Dag.topological_order g in
  let engine = Flat_engine.create model g ~order in
  let m0 = Flat_engine.makespan engine in
  Flat_engine.commit engine;
  ignore (Flat_engine.flip engine 0);
  ignore (Flat_engine.flip engine 2);
  Flat_engine.rollback engine;
  Alcotest.(check (float 0.)) "rollback restores bitwise" m0
    (Flat_engine.makespan engine);
  let fresh = Flat_engine.create model g ~order in
  ignore (Flat_engine.flip fresh 3);
  ignore (Flat_engine.flip engine 3);
  Alcotest.(check (float 0.)) "path-independent" (Flat_engine.makespan fresh)
    (Flat_engine.makespan engine)

let test_prefix_cursor () =
  (* the branch-and-bound access pattern: assign flags left to right asking
     only for prefix costs, with backtracking; the cursor must hold the bits
     of a fresh engine, and the oracle's value, at every horizon *)
  let g =
    let rng = Wfc_platform.Rng.create 11 in
    Builders.layered
      ~rand:(fun b -> Wfc_platform.Rng.int rng b)
      ~n_layers:3
      ~layer_width:(fun l -> if l = 1 then 3 else 2)
      ~weight:(fun i -> 2. +. float_of_int (i mod 3))
      ~checkpoint_cost:(fun _ _ -> 0.7)
      ~recovery_cost:(fun _ _ -> 0.4)
      ()
  in
  let model = FM.make ~lambda:0.08 ~downtime:0.1 () in
  let order = Wfc_dag.Dag.topological_order g in
  let n = Array.length order in
  let flat = Flat_engine.create model g ~order in
  let check_prefix upto =
    let flags = Flat_engine.flags flat in
    let pf = Flat_engine.prefix_makespan flat ~upto in
    let pr = Flat_engine.prefix_makespan (fresh model g ~order flags) ~upto in
    if pf <> pr then
      Alcotest.failf "prefix %d: flat %.17g <> fresh %.17g" upto pf pr;
    let po = oracle_prefix model g ~order flags upto in
    if not (rel_close pf po) then
      Alcotest.failf "prefix %d: flat %.17g oracle %.17g" upto pf po
  in
  let rec walk i =
    if i < n then begin
      List.iter
        (fun b ->
          Flat_engine.set_flag_at flat ~pos:i b;
          check_prefix (i + 1);
          if i < 3 then walk (i + 1))
        [ true; false ]
    end
  in
  walk 0;
  check_prefix n

(* ---- model rebinding ---- *)

let test_set_model () =
  let g =
    Builders.fork_join ~source_weight:2. ~middle_weights:[| 3.; 1.; 4. |]
      ~sink_weight:2.
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ()
  in
  let order = Wfc_dag.Dag.topological_order g in
  let m0 = FM.make ~lambda:1e-3 ~downtime:1. () in
  let m1 = FM.make ~lambda:0.07 ~downtime:0.4 () in
  (* a rebound engine must hold the bits of one built under the new model *)
  let flat = Flat_engine.create m0 g ~order in
  let rebuilt m =
    Flat_engine.makespan (fresh m g ~order (Flat_engine.flags flat))
  in
  ignore (Flat_engine.flip flat 1);
  Flat_engine.set_model flat m1;
  ignore (Flat_engine.flip flat 3);
  Alcotest.(check (float 0.)) "post-rebind bitwise" (rebuilt m1)
    (Flat_engine.makespan flat);
  (* and a rebind to lambda = 0 and back *)
  let m_free = FM.make ~lambda:0. () in
  Flat_engine.set_model flat m_free;
  Alcotest.(check (float 0.)) "lambda 0 bitwise" (rebuilt m_free)
    (Flat_engine.makespan flat);
  Flat_engine.set_model flat m1;
  Alcotest.(check (float 0.)) "back again" (rebuilt m1)
    (Flat_engine.makespan flat)

(* ---- batch evaluation ---- *)

let test_batch_matches_oracle_and_split () =
  let g =
    Builders.fork_join ~source_weight:2. ~middle_weights:[| 3.; 1.; 4. |]
      ~sink_weight:2.
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ()
  in
  let model = FM.make ~lambda:0.06 ~downtime:0.2 () in
  let order = Wfc_dag.Dag.topological_order g in
  let n = Array.length order in
  let rng = Wfc_platform.Rng.create 7 in
  let candidates =
    List.init 23 (fun _ ->
        Array.init n (fun _ -> Wfc_platform.Rng.int rng 2 = 0))
  in
  let results = Eval_engine.batch_evaluate ~domains:1 model g ~order candidates in
  List.iter2
    (fun flags m ->
      let m' = oracle model g ~order flags in
      if not (rel_close m m') then
        Alcotest.failf "batch vs oracle: %.17g <> %.17g" m m')
    candidates results;
  (* bit-identical whatever the parallelism degree *)
  List.iter
    (fun domains ->
      let r = Eval_engine.batch_evaluate ~domains model g ~order candidates in
      if not (List.for_all2 (fun a b -> a = b) results r) then
        Alcotest.failf "batch not deterministic at %d domains" domains)
    [ 2; 3; 5; 64 ]

(* ---- validation ---- *)

let test_validation () =
  let g = Builders.chain ~weights:[| 1.; 2. |] () in
  let model = FM.make ~lambda:0.1 () in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Flat_engine.create model g ~order:[| 1; 0 |]);
  expect_invalid (fun () ->
      Flat_engine.create ~flags:[| true |] model g ~order:[| 0; 1 |]);
  let engine = Flat_engine.create model g ~order:[| 0; 1 |] in
  expect_invalid (fun () -> Flat_engine.flip engine 2);
  expect_invalid (fun () -> Flat_engine.prefix_makespan engine ~upto:3);
  expect_invalid (fun () -> Flat_engine.set_flag_at engine ~pos:(-1) false);
  expect_invalid (fun () -> Flat_engine.set_flags engine [| true |]);
  expect_invalid (fun () ->
      Flat_engine.lost_entry engine ~last_fault:1 ~position:0);
  expect_invalid (fun () ->
      Eval_engine.handle Eval_engine.Naive model g ~order:[| 0; 1 |]);
  expect_invalid (fun () ->
      Eval_engine.batch_evaluate ~domains:0 model g ~order:[| 0; 1 |]
        [ [| false; false |] ])

(* ---- allocation guard ---- *)

let test_flip_allocates_nothing () =
  (* the whole steady-state move — flip_quiet + full revalidation — must not
     touch the minor heap. Only meaningful under ocamlopt; the bytecode
     runtime boxes freely. *)
  if Sys.backend_type <> Sys.Native then ()
  else begin
    let rng = Wfc_platform.Rng.create 3 in
    let g =
      Builders.layered
        ~rand:(fun b -> Wfc_platform.Rng.int rng b)
        ~n_layers:5
        ~layer_width:(fun _ -> 6)
        ~weight:(fun i -> 1. +. float_of_int (i mod 7))
        ~checkpoint_cost:(fun _ w -> 0.2 *. w)
        ~recovery_cost:(fun _ w -> 0.1 *. w)
        ()
    in
    let model = FM.make ~lambda:0.02 ~downtime:0.5 () in
    let order = Wfc_dag.Dag.topological_order g in
    let n = Array.length order in
    let engine = Flat_engine.create model g ~order in
    ignore (Flat_engine.makespan engine);
    (* warm every code path once (rebuilds, transforms, steps) *)
    for v = 0 to n - 1 do
      Flat_engine.flip_quiet engine v
    done;
    let rounds = 1000 in
    let before = Gc.minor_words () in
    for j = 0 to rounds - 1 do
      Flat_engine.flip_quiet engine (j mod n)
    done;
    let after = Gc.minor_words () in
    let per_flip = (after -. before) /. float_of_int rounds in
    if per_flip > 0.5 then
      Alcotest.failf "flip_quiet allocates %.2f minor words per flip" per_flip
  end

let () =
  Alcotest.run "flat_engine"
    [
      ( "differential",
        [
          differential;
          handle_differential;
          vectors_bitwise;
          vectors_against_oracle;
          lost_entries_bitwise;
        ] );
      ( "structures",
        [
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "fork and join" `Quick test_fork_and_join;
          Alcotest.test_case "single task" `Quick test_single_task;
          Alcotest.test_case "lambda = 0" `Quick test_lambda_zero;
        ] );
      ( "state",
        [
          Alcotest.test_case "rollback bitwise" `Quick test_rollback_is_bitwise;
          Alcotest.test_case "prefix cursor" `Quick test_prefix_cursor;
          Alcotest.test_case "set_model" `Quick test_set_model;
        ] );
      ( "batch",
        [
          Alcotest.test_case "oracle + split invariance" `Quick
            test_batch_matches_oracle_and_split;
        ] );
      ("validation", [ Alcotest.test_case "arguments" `Quick test_validation ]);
      ( "allocation",
        [
          Alcotest.test_case "flip_quiet is allocation-free" `Quick
            test_flip_allocates_nothing;
        ] );
    ]
