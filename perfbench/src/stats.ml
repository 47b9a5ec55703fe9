(* Order statistics for latency samples.

   A timing is reported as its median plus a tail: the highest
   percentile of {!ladder} that still has at least ten samples beyond
   it, so a tail never rests on a handful of outliers. When no rung
   qualifies (fewer than 20 samples) the tail is the maximum. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of percentile [p] among [n] samples. *)
let rank p n = max 1 (int_of_float (Float.ceil (p *. float_of_int n -. 1e-9)))

(* Nearest-rank percentile of an already sorted array. *)
let at sorted_xs p =
  let n = Array.length sorted_xs in
  if n = 0 then invalid_arg "Stats.at: no samples";
  sorted_xs.(min n (rank p n) - 1)

let median xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let ladder = [ 0.999; 0.99; 0.95; 0.90; 0.75; 0.50 ]
let min_beyond = 10

let tail_percentile n =
  List.find_opt (fun p -> n - rank p n >= min_beyond) ladder

let percentile_name p =
  let s = Printf.sprintf "%g" (p *. 100.0) in
  "p" ^ String.concat "" (String.split_on_char '.' s)

(* (name, value): ["p99"], ["p75"], ... or ["max"]. *)
let tail xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  match tail_percentile n with
  | Some p -> (percentile_name p, at s p)
  | None -> ("max", s.(n - 1))

(* Geometric mean, so that each figure weighs the same in relative
   terms whatever its scale. *)
let geomean xs =
  if Array.length xs = 0 then invalid_arg "Stats.geomean: no samples";
  exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (Array.length xs))

(* Human summary: "median 1.23 ms, p99 4.56 ms (n=1000)". *)
let describe ?(scale = 1000.0) ?(unit = "ms") xs =
  if Array.length xs = 0 then "no samples"
  else
    let name, t = tail xs in
    Printf.sprintf "median %.3f %s, %s %.3f %s (n=%d)" (median xs *. scale) unit
      name (t *. scale) unit (Array.length xs)
