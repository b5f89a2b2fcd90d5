type t = { lambda : float; downtime : float }

let make ~lambda ?(downtime = 0.) () =
  if not (Float.is_finite lambda && lambda >= 0.) then
    invalid_arg "Failure_model.make: lambda must be finite and non-negative";
  if not (Float.is_finite downtime && downtime >= 0.) then
    invalid_arg "Failure_model.make: downtime must be finite and non-negative";
  { lambda; downtime }

let of_mtbf ~mtbf ?downtime () =
  if not (Float.is_finite mtbf && mtbf > 0.) then
    invalid_arg "Failure_model.of_mtbf: mtbf must be positive and finite";
  make ~lambda:(1. /. mtbf) ?downtime ()

let of_platform ~processors ~proc_mtbf ?downtime () =
  if processors <= 0 then
    invalid_arg "Failure_model.of_platform: processors must be positive";
  if not (Float.is_finite proc_mtbf && proc_mtbf > 0.) then
    invalid_arg "Failure_model.of_platform: proc_mtbf must be positive";
  make ~lambda:(float_of_int processors /. proc_mtbf) ?downtime ()

let fail_free = { lambda = 0.; downtime = 0. }
let mtbf m = if m.lambda = 0. then infinity else 1. /. m.lambda

let check_amount name x =
  if Float.is_nan x || x < 0. then
    invalid_arg (Printf.sprintf "Failure_model.%s: negative or NaN argument" name)

(* expm1 keeps precision when lambda * (w + c) is tiny, which is the common
   regime (task weights far below the MTBF). *)
let expected_exec_time m ~work ~checkpoint ~recovery =
  check_amount "expected_exec_time" work;
  check_amount "expected_exec_time" checkpoint;
  check_amount "expected_exec_time" recovery;
  if m.lambda = 0. then work +. checkpoint
  else
    Float.exp (m.lambda *. recovery)
    *. ((1. /. m.lambda) +. m.downtime)
    *. Float.expm1 (m.lambda *. (work +. checkpoint))

let expected_time_lost m ~work =
  check_amount "expected_time_lost" work;
  if m.lambda = 0. then
    invalid_arg "Failure_model.expected_time_lost: lambda is zero";
  if work = 0. then 0.
  else (1. /. m.lambda) -. (work /. Float.expm1 (m.lambda *. work))

let success_probability m ~work =
  check_amount "success_probability" work;
  Float.exp (-.m.lambda *. work)

type vec = Float.Array.t

(* The two expm1 transforms every Theorem 3 fault row needs, batched over a
   contiguous span so the transcendental calls run back-to-back instead of
   interleaving with matrix walks. Takes the model (not a bare float) so the
   non-flambda native compiler passes one pointer and no caller ever boxes
   lambda: the span fill is allocation-free. *)
let expm1_span m ~(lost : vec) ~(u : vec) ~(x : vec) ~lo ~len =
  if lo < 0 || len < 0 || lo + len > Float.Array.length lost then
    invalid_arg "Failure_model.expm1_span: span out of range";
  if Float.Array.length u < lo + len || Float.Array.length x < lo + len then
    invalid_arg "Failure_model.expm1_span: output spans too short";
  let lambda = m.lambda in
  for j = lo to lo + len - 1 do
    let l = Float.Array.unsafe_get lost j in
    Float.Array.unsafe_set u j (Float.expm1 (-.lambda *. l));
    Float.Array.unsafe_set x j (Float.expm1 (lambda *. l))
  done

let pp ppf m =
  if m.lambda = 0. then Format.fprintf ppf "failure-free platform"
  else
    Format.fprintf ppf "platform: lambda=%g (MTBF %g s), downtime %g s"
      m.lambda (mtbf m) m.downtime
