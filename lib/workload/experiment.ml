module Core = Bccore

type algo = Naive | Opt

let algo_name = function Naive -> "NaiveDCSat" | Opt -> "OptDCSat"

type measurement = {
  label : string;
  algo : algo;
  variant : Queries.variant;
  jobs : int;
  satisfied : bool;
  unknown : bool;
  seconds : float;
  stats : Core.Dcsat.stats;
  obs_worlds : int;
  comp_cache_hit_ratio : float;
  worker_util : float;
  eval_full : int;
  eval_delta : int;
  eval_delta_tuples : int;
  eval_delta_ratio : float;
  base_bytes : int;
  dict_hits : int;
}

let run ?(repeats = 3) ?(warmup = 0) ?(summary = `Mean) ?(jobs = 1)
    ?config ?timeout_s ?max_worlds ?(obs_sinks = []) ~session ~label ~algo
    ~variant q =
  let solve () =
    (* Budgets are single-run (the deadline is absolute): each solve gets
       a fresh one, so every repeat has the full allowance. *)
    let budget = Core.Engine.Budget.create ?timeout_s ?max_worlds () in
    let result =
      match algo with
      | Naive -> Core.Dcsat.naive ~jobs ~budget ?config session q
      | Opt -> Core.Dcsat.opt ~jobs ~budget ?config session q
    in
    match result with
    | Ok outcome -> outcome
    | Error refusal ->
        invalid_arg
          (Format.asprintf "Experiment.run (%s, %s): %a" label (algo_name algo)
             Core.Dcsat.pp_refusal refusal)
  in
  for _ = 1 to warmup do
    ignore (solve ())
  done;
  let outcomes = List.init (max 1 repeats) (fun _ -> solve ()) in
  (* Per-run times come from the solver's own stats, which read the
     monotonic clock (Monotime) — immune to NTP adjustments. *)
  let times =
    List.map
      (fun (o : Core.Dcsat.outcome) -> o.Core.Dcsat.stats.Core.Dcsat.runtime)
      outcomes
  in
  let seconds =
    match summary with
    | `Mean ->
        List.fold_left ( +. ) 0.0 times /. float_of_int (List.length times)
    | `Min -> List.fold_left min infinity times
  in
  let last = List.nth outcomes (List.length outcomes - 1) in
  (* The headline counters come from one extra, untimed solve under a
     fresh recorder: the timed loop above stays uninstrumented (null
     recorder — within noise of the pre-observability harness), and the
     engine's determinism contract makes the world/clique counters of
     the extra run equal to the timed runs'. *)
  let obs = Bcobs.Obs.create ~sinks:obs_sinks () in
  let saved = Core.Session.obs session in
  Core.Session.set_obs session obs;
  let instrumented = solve () in
  Core.Session.set_obs session saved;
  Bcobs.Obs.flush obs;
  let obs_worlds = Bcobs.Obs.counter obs "dcsat.worlds" in
  let eval_full = Bcobs.Obs.counter obs "eval.full" in
  let eval_delta = Bcobs.Obs.counter obs "eval.delta" in
  let eval_delta_tuples = Bcobs.Obs.counter obs "eval.delta_tuples" in
  let eval_delta_ratio =
    let total = eval_full + eval_delta in
    if total = 0 then 0.0 else float_of_int eval_delta /. float_of_int total
  in
  let chit = Bcobs.Obs.counter obs "live.comp_cache_hit" in
  let cmiss = Bcobs.Obs.counter obs "live.comp_cache_miss" in
  let comp_cache_hit_ratio =
    if chit + cmiss = 0 then 0.0
    else float_of_int chit /. float_of_int (chit + cmiss)
  in
  let busy =
    match Bcobs.Obs.hist_of obs "engine.busy_s" with
    | Some h -> h.Bcobs.Obs.sum
    | None -> 0.0
  in
  let irt = instrumented.Core.Dcsat.stats.Core.Dcsat.runtime in
  let worker_util =
    if irt <= 0.0 then 0.0 else busy /. (float_of_int (max 1 jobs) *. irt)
  in
  {
    label;
    algo;
    variant;
    jobs;
    satisfied = last.Core.Dcsat.satisfied;
    unknown =
      (match last.Core.Dcsat.verdict with
      | Core.Dcsat.Unknown _ -> true
      | Core.Dcsat.Satisfied | Core.Dcsat.Violated _ -> false);
    seconds;
    stats = last.Core.Dcsat.stats;
    obs_worlds;
    comp_cache_hit_ratio;
    worker_util;
    eval_full;
    eval_delta;
    eval_delta_tuples;
    eval_delta_ratio;
    base_bytes = Core.Tagged_store.base_bytes (Core.Session.store session);
    dict_hits = Bcobs.Obs.counter obs "segment.dict_hits";
  }

let session_of db =
  let session = Core.Session.create db in
  Core.Session.warm session;
  session

let print_table ~title ~columns ~rows =
  let all = columns :: rows in
  let ncols = List.length columns in
  let width i =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row i with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let print_row row =
    List.mapi (fun i cell -> pad cell (List.nth widths i)) row
    |> String.concat "  " |> String.trim |> print_endline
  in
  Printf.printf "\n== %s ==\n" title;
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let ms seconds =
  if seconds < 0.0005 then Printf.sprintf "%.2f ms" (seconds *. 1000.0)
  else if seconds < 1.0 then Printf.sprintf "%.1f ms" (seconds *. 1000.0)
  else Printf.sprintf "%.2f s" seconds
