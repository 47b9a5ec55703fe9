(* The per-layer cost ledger of a traced replay.

   Spans come from one recorder: the benchmark's own spans around calls
   into each layer's public functions, plus the spans the program
   already records inside Session, Solver, Dcsat and the engine. Within
   one domain spans are properly nested or disjoint, so nesting is
   recovered from the intervals alone. A span's self time is its
   duration minus the part its children cover; summing self time by
   layer attributes every nanosecond of the replay window once. *)

module Obs = Bcobs.Obs

(* Layer of a span name. Spans nested inside Live maintenance are
   charged to it whatever they are (the session structures it rebuilds
   are its cost); [None] marks the benchmark's own glue. *)
let layer_of_name = function
  | "parser.parse" | "rows.parse" | "ingest.parse" -> Some "parse"
  | "live.add" | "live.evict" | "live.confirm" -> Some "live_maint"
  | "live.check" -> Some "live_check"
  | "snapshot.load" | "ingest.write" -> Some "load"
  | "live.create" -> Some "live_create"
  | "session.create" | "fd_graph" | "ind_base_edges" | "includable" ->
      Some "session"
  | "bk_yield" | "get_maximal" | "eval" | "claim" | "worker" | "join" ->
      Some "enum_eval"
  | "solve" | "precheck" | "covers" | "ind_graph" -> Some "dcsat"
  | _ -> None

let layers =
  [ "parse"; "live_maint"; "live_check"; "load"; "live_create"; "session";
    "dcsat"; "enum_eval" ]

type t = {
  window_ns : int64;  (** Wall time of the replay window. *)
  self_ns : (string * int64) list;  (** Per layer, in {!layers} order. *)
  unattributed_frac : float;  (** 1 − Σ layer self time ÷ window. *)
}

(* Self time per span, charged to the span's layer. Only spans inside
   [lo, hi] (nanoseconds) count. *)
let compute ~lo ~hi (spans : Obs.span list) =
  let inside =
    List.filter
      (fun (s : Obs.span) ->
        s.Obs.start_ns >= lo && Int64.add s.Obs.start_ns s.Obs.dur_ns <= hi)
      spans
  in
  let by_dom = Hashtbl.create 4 in
  List.iter
    (fun (s : Obs.span) ->
      Hashtbl.replace by_dom s.Obs.dom
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_dom s.Obs.dom)))
    inside;
  let totals = Hashtbl.create 16 in
  let charge layer ns =
    Hashtbl.replace totals layer
      (Int64.add ns (Option.value ~default:0L (Hashtbl.find_opt totals layer)))
  in
  Hashtbl.iter
    (fun _ dom_spans ->
      (* Parents first: earlier start, then longer duration. *)
      let arr = Array.of_list dom_spans in
      Array.sort
        (fun (a : Obs.span) (b : Obs.span) ->
          match Int64.compare a.Obs.start_ns b.Obs.start_ns with
          | 0 -> Int64.compare b.Obs.dur_ns a.Obs.dur_ns
          | c -> c)
        arr;
      let n = Array.length arr in
      let child_ns = Array.make n 0L in
      let layer = Array.make n None in
      (* Stack of open spans (indices). *)
      let stack = ref [] in
      let end_of i = Int64.add arr.(i).Obs.start_ns arr.(i).Obs.dur_ns in
      Array.iteri
        (fun i (s : Obs.span) ->
          let rec pop () =
            match !stack with
            | top :: rest when end_of top <= s.Obs.start_ns ->
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | parent :: _ ->
              child_ns.(parent) <- Int64.add child_ns.(parent) s.Obs.dur_ns;
              layer.(i) <-
                (match layer.(parent) with
                | Some "live_maint" -> Some "live_maint"
                | _ -> layer_of_name s.Obs.name)
          | [] -> layer.(i) <- layer_of_name s.Obs.name);
          stack := i :: !stack)
        arr;
      Array.iteri
        (fun i (s : Obs.span) ->
          match layer.(i) with
          | Some l -> charge l (Int64.sub s.Obs.dur_ns child_ns.(i))
          | None -> ())
        arr)
    by_dom;
  let window_ns = Int64.sub hi lo in
  let self_ns =
    List.map
      (fun l -> (l, Option.value ~default:0L (Hashtbl.find_opt totals l)))
      layers
  in
  let attributed =
    List.fold_left (fun acc (_, ns) -> Int64.add acc ns) 0L self_ns
  in
  {
    window_ns;
    self_ns;
    unattributed_frac =
      (if window_ns <= 0L then 0.0
       else 1.0 -. (Int64.to_float attributed /. Int64.to_float window_ns));
  }

let frac t layer =
  if t.window_ns <= 0L then 0.0
  else Int64.to_float (List.assoc layer t.self_ns) /. Int64.to_float t.window_ns

(* Durations (seconds) of every span with the given name. *)
let durations name (spans : Obs.span list) =
  Array.of_list
    (List.filter_map
       (fun (s : Obs.span) ->
         if s.Obs.name = name then Some (Int64.to_float s.Obs.dur_ns *. 1e-9)
         else None)
       spans)
