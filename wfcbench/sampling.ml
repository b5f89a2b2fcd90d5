let min_tail = 10

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let percentile samples p =
  let n = Array.length samples in
  if not (p > 0. && p < 1.) then Error (Printf.sprintf "percentile %g outside (0, 1)" p)
  else if n = 0 then Error "percentile of an empty sample"
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    let rank = Int.max 1 (Int.min n rank) in
    let above = n - rank in
    if above < min_tail then
      Error
        (Printf.sprintf
           "p%g needs at least %d samples above it, but %d samples leave %d"
           (100. *. p) min_tail n above)
    else Ok (sorted_copy samples).(rank - 1)

let median samples =
  let n = Array.length samples in
  if n = 0 then Float.nan
  else
    let s = sorted_copy samples in
    if n mod 2 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

let mean samples =
  let n = Array.length samples in
  if n = 0 then Float.nan
  else Array.fold_left ( +. ) 0. samples /. float_of_int n

type tally = {
  phase : string;
  mutable sent : int;
  mutable succeeded : int;
  mutable failed : int;
}

let tally phase = { phase; sent = 0; succeeded = 0; failed = 0 }
let sent t = t.sent <- t.sent + 1
let succeeded t = t.succeeded <- t.succeeded + 1
let failed t = t.failed <- t.failed + 1

let reclassify_failed t =
  if t.succeeded = 0 then invalid_arg "Sampling.reclassify_failed: no success";
  t.succeeded <- t.succeeded - 1;
  t.failed <- t.failed + 1

let balanced t = t.sent = t.succeeded + t.failed

let merge phase ts =
  List.fold_left
    (fun acc t ->
      acc.sent <- acc.sent + t.sent;
      acc.succeeded <- acc.succeeded + t.succeeded;
      acc.failed <- acc.failed + t.failed;
      acc)
    (tally phase) ts

let failed_frac t =
  if t.sent = 0 then 0. else float_of_int t.failed /. float_of_int t.sent

let render t =
  Printf.sprintf "%s: sent %d = succeeded %d + failed %d%s" t.phase t.sent
    t.succeeded t.failed
    (if balanced t then "" else " (UNBALANCED)")

type mark = { at : float; stolen : float }

let steal_free_spans ~tolerance marks =
  let rec go spans = function
    | a :: (b :: _ as rest) ->
        let spans =
          if b.stolen -. a.stolen > tolerance *. (b.at -. a.at) then spans
          else
            match spans with
            | (lo, hi) :: older when hi = a.at -> (lo, b.at) :: older
            | _ -> (a.at, b.at) :: spans
        in
        go spans rest
    | _ -> List.rev spans
  in
  go [] marks

let inside spans (t0, t1) = List.exists (fun (lo, hi) -> lo <= t0 && t1 <= hi) spans
let span_seconds spans = List.fold_left (fun acc (lo, hi) -> acc +. (hi -. lo)) 0. spans
