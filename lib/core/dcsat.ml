module R = Relational
module Q = Bcquery
module Bitset = Bcgraph.Bitset
module Undirected = Bcgraph.Undirected

type stats = {
  worlds_checked : int;
  cliques_enumerated : int;
  components_total : int;
  components_covered : int;
  precheck_decided : bool;
  runtime : float;
}

type verdict =
  | Satisfied
  | Violated of {
      world : int list;
      witness : (string * R.Value.t) list option;
    }
  | Unknown of Engine.Budget.reason

type outcome = {
  satisfied : bool;
  witness_world : int list option;
  witness : (string * R.Value.t) list option;
  verdict : verdict;
  stats : stats;
}

type refusal = [ `Not_monotone of string | `Not_connected ]

type event =
  | Precheck_decided
  | Components_found of int
  | Component_skipped of int list
  | Component_entered of int list
  | Clique_found of int list
  | World_evaluated of int list * bool

(* Per-component verdicts and the verdict-cache hooks of OptDCSat. A
   component's verdict depends only on its member transactions'
   rows, the confirmed state and the query — the factorization argument
   of Proposition 2 — so a caller that can recognize an unchanged
   component (Live's content signatures) may replay its last verdict. *)
type comp_verdict =
  | Comp_satisfied
  | Comp_violated of {
      world : int list;
      witness : (string * R.Value.t) list option;
    }
  | Comp_unknown of Engine.Budget.reason

type comp_hooks = {
  comp_clean : index:int -> int list -> comp_verdict option;
      (* [Some v]: verdict known for unchanged content — skip entirely,
         [v] stands in for a fresh solve. Replaying [Comp_violated]
         additionally requires un-re-packed ids (world/witness name
         transaction ids). *)
  comp_suspect : index:int -> int list -> bool;
      (* Violated last check: schedule first. *)
  comp_solved : index:int -> int list -> comp_verdict -> unit;
      (* Fired once per solved dirty component, in ascending component
         index, after the enumeration ends. *)
}

let pp_refusal ppf = function
  | `Not_monotone reason -> Format.fprintf ppf "not monotone: %s" reason
  | `Not_connected -> Format.pp_print_string ppf "not a connected conjunctive query"

let verdict_name = function
  | Satisfied -> "SATISFIED"
  | Violated _ -> "UNSATISFIED"
  | Unknown reason ->
      Printf.sprintf "UNKNOWN (budget exhausted: %s)"
        (Engine.Budget.reason_name reason)

let pp_outcome ppf o =
  Format.fprintf ppf "%s (worlds=%d cliques=%d comps=%d/%d precheck=%b %.4fs)"
    (verdict_name o.verdict) o.stats.worlds_checked o.stats.cliques_enumerated
    o.stats.components_covered o.stats.components_total
    o.stats.precheck_decided o.stats.runtime

(* Mutable counters threaded through a run. *)
type counters = {
  mutable worlds : int;
  mutable cliques : int;
  mutable comps : int;
  mutable covered : int;
}

let fresh_counters () = { worlds = 0; cliques = 0; comps = 0; covered = 0 }

(* The verdict of one enumeration: a violation found before any budget
   exhaustion is a sound counterexample (Violated wins); a clean, fully
   enumerated run is Satisfied; a budget-cut run without a witness is
   Unknown — the unexplored suffix could hide a violation. *)
let verdict_of ~violation ~exhausted =
  match (violation, exhausted) with
  | Some (world, witness), _ -> Violated { world; witness }
  | None, Some reason -> Unknown reason
  | None, None -> Satisfied

let finish ~t0 ~precheck counters verdict =
  let witness_world, witness =
    match verdict with
    | Violated v -> (Some v.world, v.witness)
    | Satisfied | Unknown _ -> (None, None)
  in
  {
    (* [satisfied] means "known to hold in every world": false for both
       Violated and Unknown — consult [verdict] to tell them apart. *)
    satisfied = (verdict = Satisfied);
    witness_world;
    witness;
    verdict;
    stats =
      {
        worlds_checked = counters.worlds;
        cliques_enumerated = counters.cliques;
        components_total = counters.comps;
        components_covered = counters.covered;
        precheck_decided = precheck;
        runtime = Monotime.elapsed ~since:t0;
      };
  }

type config = { precheck : bool; delta : bool }

let default = { precheck = true; delta = true }

(* The solve's evaluator constructor: each call instantiates one
   {!Inc_eval} evaluator over the session's compiled plan, so every
   engine worker gets its own incremental world caches (the caches
   themselves live with the store being evaluated on, which is also
   worker-private). *)
let evaluators config session plan () =
  Inc_eval.evaluator ~use_delta:config.delta ~obs:(Session.obs session) plan

(* [obs] records the eval span — it runs on whatever domain evaluates,
   and per-domain buffering keeps concurrent evaluations from
   interleaving. This runs once per world: the span closure must only be
   built when recording, or its allocation taxes the uninstrumented hot
   path. *)
let eval_txs obs ev store txs =
  if Obs.enabled obs then
    Obs.span obs ~cat:"dcsat" "eval" (fun () -> Inc_eval.eval_world ev store txs)
  else Inc_eval.eval_world ev store txs

(* A clique work item: materialize its maximal world ({!Get_maximal}
   reads the clique's own rows and never switches the store's world),
   then evaluate. *)
let eval_clique obs ev store members =
  let world =
    if Obs.enabled obs then
      Obs.span obs ~cat:"dcsat" "get_maximal" (fun () ->
          Get_maximal.run_list store members)
    else Get_maximal.run_list store members
  in
  eval_txs obs ev store (Bitset.to_list world)

(* The monotone pre-check: q false over R ∪ T implies satisfied. It
   reads the fixed [R ∪ T] view, so the store's active world (its epoch
   and posting caches) is never switched. *)
let precheck session evaluators =
  let obs = Session.obs session in
  Obs.span obs ~cat:"dcsat" "precheck" @@ fun () ->
  not
    (Inc_eval.eval_source (evaluators ())
       (Tagged_store.union_source (Session.store session)))

(* Fan the items of [source] out over the engine and fold the report
   back into the run's counters. Returns the run's violation (if any)
   and the budget-exhaustion reason (if the budget tripped). *)
let run_worlds ~jobs ~budget ~on_event ~count_cliques session counters ~eval
    source =
  let store = Session.store session in
  let obs = Session.obs session in
  let report =
    Engine.run ~obs ~budget ~jobs ~store
      ~replicate:(fun () -> Session.borrow_replica session)
      ~release:(Session.return_replica session)
      ~source ~eval
      ~on_item:(fun members ->
        if count_cliques then on_event (Clique_found members))
      ~on_evaluated:(fun ev ->
        on_event
          (World_evaluated (ev.Engine.world, ev.Engine.violation <> None)))
      ()
  in
  if count_cliques then
    counters.cliques <- counters.cliques + report.Engine.pulled;
  counters.worlds <- counters.worlds + report.Engine.evaluated;
  (* The engine clamps both counts to the winning index, so these obs
     counters are deterministic across backends and job counts. *)
  if Obs.enabled obs then begin
    if count_cliques then Obs.add obs "dcsat.cliques" report.Engine.pulled;
    Obs.add obs "dcsat.worlds" report.Engine.evaluated
  end;
  ( Option.map
      (fun (v : Engine.violation) -> (v.Engine.world, v.witness))
      report.Engine.hit,
    report.Engine.exhausted )

(* The maximal cliques of the fd graph restricted to [nodes], as
   candidate sets in original transaction ids. [interrupt] (a budget's
   deadline hook) is threaded into the clique generator, so a long
   inter-yield search is still cut promptly. *)
let clique_source ?interrupt obs fd nodes =
  let sub, back = Undirected.induced fd.Fd_graph.graph nodes in
  let next = Engine.Work_source.of_cliques ?interrupt sub ~back in
  if not (Obs.enabled obs) then next
  else fun () -> Obs.span obs ~cat:"dcsat" "bk_yield" next

let budget_interrupt budget =
  if Engine.Budget.is_unlimited budget then None
  else Some (Engine.Budget.interrupt budget)

(* OptDCSat's component loop (Fig. 5), with or without [hooks] (see
   {!opt} in the interface). Every covered component is one work item of
   a single engine run; its worker enumerates the component's cliques in
   Bron–Kerbosch order and stops at the component's first violation.
   The source walks the components lazily under the claim lock, checking
   the budget and running Covers, so no component is entered after a
   trip. [lock] serializes every budget check and every [on_event] call;
   the engine run's own budget stays unlimited, as it would count
   components, the wrong unit. The lowest-index violation wins, and
   without [hooks] work is counted only up to it. *)
let run_components ~jobs ~budget ~on_event ~hooks session q evaluators counters
    components =
  let store = Session.store session in
  let obs = Session.obs session in
  (* Forced here: workers must not race on the session's lazy graph. *)
  let fd = Session.fd_graph session in
  let comps = Array.of_list components in
  let n = Array.length comps in
  (* Per component index: verdict plus its clique/world work counts. *)
  let results : (comp_verdict * int * int) option array = Array.make n None in
  let entered = Array.make n false in
  (* Cache hits land in [results] but must not re-fire [comp_solved]. *)
  let from_cache = Array.make n false in
  let order =
    match hooks with
    | None -> List.init n Fun.id
    | Some hooks ->
        let dirty =
          List.filter
            (fun i ->
              match hooks.comp_clean ~index:i comps.(i) with
              | Some v ->
                  results.(i) <- Some (v, 0, 0);
                  from_cache.(i) <- true;
                  false
              | None -> true)
            (List.init n Fun.id)
        in
        (* Suspects first, then largest first. *)
        let key i =
          ( not (hooks.comp_suspect ~index:i comps.(i)),
            -List.length comps.(i),
            i )
        in
        List.map (fun (_, _, i) -> i) (List.sort compare (List.map key dirty))
  in
  (* Components are disjoint and non-empty: the first member names one. *)
  let index_of = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace index_of (List.hd comps.(i)) i) order;
  let lock = Mutex.create () in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let worlds = ref 0 in
  let check_budget () =
    locked (fun () -> Engine.Budget.check budget ~evaluated:!worlds)
  in
  let remaining = ref order in
  let source () =
    let rec next () =
      match !remaining with
      | [] -> None
      | i :: tl ->
          remaining := tl;
          let c = comps.(i) in
          if
            Obs.span obs ~cat:"dcsat" "covers" (fun () ->
                Covers.covers store c q)
          then begin
            entered.(i) <- true;
            locked (fun () -> on_event (Component_entered c));
            Some c
          end
          else begin
            (* Cacheably satisfied without enumeration. *)
            locked (fun () ->
                results.(i) <- Some (Comp_satisfied, 0, 0);
                on_event (Component_skipped c));
            next ()
          end
    in
    if check_budget () <> None then None else next ()
  in
  let eval_comp () =
    let ev = evaluators () in
    fun store members ->
      let i = Hashtbl.find index_of (List.hd members) in
      let cut = ref None in
      let interrupt =
        Option.map
          (fun stop () ->
            locked (fun () ->
                let stopped = stop () in
                if stopped then cut := Engine.Budget.tripped budget;
                stopped))
          (budget_interrupt budget)
      in
      let next = clique_source ?interrupt obs fd members in
      let cliques = ref 0 and comp_worlds = ref 0 in
      let rec go () =
        match check_budget () with
        | Some reason -> Comp_unknown reason
        | None -> (
            match next () with
            | None -> (
                match !cut with
                | Some reason -> Comp_unknown reason
                | None -> Comp_satisfied)
            | Some clique -> (
                incr cliques;
                locked (fun () -> on_event (Clique_found clique));
                let ev = eval_clique obs ev store clique in
                incr comp_worlds;
                locked (fun () ->
                    incr worlds;
                    on_event
                      (World_evaluated
                         (ev.Engine.world, ev.Engine.violation <> None)));
                match ev.Engine.violation with
                | Some { Engine.world; witness } ->
                    Comp_violated { world; witness }
                | None -> go ()))
      in
      let verdict = go () in
      locked (fun () -> results.(i) <- Some (verdict, !cliques, !comp_worlds));
      {
        Engine.world = members;
        violation =
          (match verdict with
          | Comp_violated { world; witness } -> Some { Engine.world; witness }
          | Comp_satisfied | Comp_unknown _ -> None);
      }
  in
  if order <> [] then
    ignore
      (Engine.run ~obs ~jobs ~store ~stop_on_hit:(Option.is_none hooks)
         ~replicate:(fun () -> Session.borrow_replica session)
         ~release:(Session.return_replica session)
         ~source ~eval:eval_comp ~on_item:ignore ~on_evaluated:ignore ()
        : Engine.report);
  let rec first_violation i =
    if i >= n then None
    else
      match results.(i) with
      | Some (Comp_violated { world; witness }, _, _) ->
          Some (i, (world, witness))
      | _ -> first_violation (i + 1)
  in
  let violation = first_violation 0 in
  let counted =
    match (hooks, violation) with
    | None, Some (winner, _) -> winner + 1
    | _ -> n
  in
  let cliques = ref 0 and comp_worlds = ref 0 in
  for i = 0 to counted - 1 do
    (match results.(i) with
    | Some (_, c, w) ->
        cliques := !cliques + c;
        comp_worlds := !comp_worlds + w
    | None -> ());
    if entered.(i) then counters.covered <- counters.covered + 1
  done;
  counters.cliques <- counters.cliques + !cliques;
  counters.worlds <- counters.worlds + !comp_worlds;
  if Obs.enabled obs then begin
    Obs.add obs "dcsat.cliques" !cliques;
    Obs.add obs "dcsat.worlds" !comp_worlds
  end;
  Option.iter
    (fun hooks ->
      Array.iteri
        (fun i r ->
          match r with
          | Some (verdict, _, _) when not from_cache.(i) ->
              hooks.comp_solved ~index:i comps.(i) verdict
          | Some _ | None -> ())
        results)
    hooks;
  (Option.map snd violation, Engine.Budget.tripped budget)

(* Restore the store's active world on every exit path: neither a
   refusal, nor a pre-check decision, nor a full enumeration may leave
   the session in a surprising world. *)
let with_world_restored session k =
  let store = Session.store session in
  let saved = Tagged_store.world store in
  Fun.protect ~finally:(fun () -> Tagged_store.set_world store saved) k

let brute_force ?(jobs = 1) ?(budget = Engine.Budget.unlimited)
    ?(config = default) session q =
  with_world_restored session @@ fun () ->
  let t0 = Monotime.now () in
  let counters = fresh_counters () in
  let evaluators = evaluators config session (Session.plan session q) in
  let obs = Session.obs session in
  let next = Poss.generator (Session.store session) in
  let source () = Option.map Bitset.to_list (next ()) in
  let violation, exhausted =
    run_worlds ~jobs ~budget ~on_event:ignore ~count_cliques:false session
      counters
      ~eval:(fun () -> eval_txs obs (evaluators ()))
      source
  in
  finish ~t0 ~precheck:false counters (verdict_of ~violation ~exhausted)

let require_monotone q k =
  match Q.Monotone.analyze q with
  | Q.Monotone.Monotone -> k ()
  | Q.Monotone.Not_monotone reason -> Error (`Not_monotone reason)

(* The prologue NaiveDCSat and OptDCSat share: the [R ∪ T] pre-check,
   then, with no pending transaction, the single world [R]; otherwise
   [enumerate k counters evaluators] over the [k] pending transactions. *)
let solve_monotone ~config ~on_event session q enumerate =
  with_world_restored session @@ fun () ->
  let t0 = Monotime.now () in
  let counters = fresh_counters () in
  let evaluators = evaluators config session (Session.plan session q) in
  if config.precheck && precheck session evaluators then begin
    on_event Precheck_decided;
    Ok (finish ~t0 ~precheck:true counters Satisfied)
  end
  else begin
    let k = Tagged_store.tx_count (Session.store session) in
    let violation, exhausted =
      if k = 0 then begin
        let obs = Session.obs session in
        counters.worlds <- counters.worlds + 1;
        if Obs.enabled obs then Obs.add obs "dcsat.worlds" 1;
        let ev = eval_txs obs (evaluators ()) (Session.store session) [] in
        ( Option.map
            (fun (v : Engine.violation) -> (v.Engine.world, v.witness))
            ev.Engine.violation,
          None )
      end
      else enumerate k counters evaluators
    in
    Ok (finish ~t0 ~precheck:false counters (verdict_of ~violation ~exhausted))
  end

let naive ?(jobs = 1) ?(budget = Engine.Budget.unlimited) ?(config = default)
    ?(on_event = ignore) session q =
  require_monotone q @@ fun () ->
  solve_monotone ~config ~on_event session q @@ fun k counters evaluators ->
  let obs = Session.obs session in
  run_worlds ~jobs ~budget ~on_event ~count_cliques:true session counters
    ~eval:(fun () -> eval_clique obs (evaluators ()))
    (clique_source ?interrupt:(budget_interrupt budget) obs
       (Session.fd_graph session) (List.init k Fun.id))

let opt ?(jobs = 1) ?(budget = Engine.Budget.unlimited) ?(config = default)
    ?(on_event = ignore) ?comp_hooks session q =
  require_monotone q @@ fun () ->
  match q with
  | Q.Query.Aggregate _ -> Error `Not_connected
  | Q.Query.Boolean body when not (Q.Gaifman.is_connected body) ->
      Error `Not_connected
  | Q.Query.Boolean _ ->
      solve_monotone ~config ~on_event session q @@ fun _ counters evaluators ->
      let obs = Session.obs session in
      let components =
        Obs.span obs ~cat:"dcsat" "ind_graph" (fun () ->
            Session.ind_components session q)
      in
      let n = List.length components in
      counters.comps <- n;
      if Obs.enabled obs then Obs.add obs "dcsat.components" n;
      on_event (Components_found n);
      run_components ~jobs ~budget ~on_event ~hooks:comp_hooks session q
        evaluators counters components
