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

type comp_hooks = {
  comp_clean : index:int -> int list -> comp_verdict option;
      (* [Some v]: verdict known for unchanged content — [v] stands in
         for a fresh solve. Replaying [Comp_violated] additionally
         requires un-re-packed ids (world/witness name transaction
         ids). *)
  comp_solved : index:int -> int list -> comp_verdict -> unit;
      (* Fired for each component decided up to the winner
         (Covers-skipped ones as [Comp_satisfied]), in ascending
         component index, after the enumeration ends. *)
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
let verdict_of ~(violation : Engine.violation option) ~exhausted =
  match (violation, exhausted) with
  | Some { Engine.world; witness }, _ -> Violated { world; witness }
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

(* Run [groups] on the engine and fold its report into the run's
   counters; when [count_cliques], every world is one clique. *)
let run_groups ~jobs ~budget ~on_event ~count_cliques session counters
    ~groups ~worlds ~eval =
  let obs = Session.obs session in
  let on_world candidate (ev : Engine.evaluation) =
    if count_cliques then on_event (Clique_found candidate);
    on_event (World_evaluated (ev.Engine.world, ev.Engine.violation <> None))
  in
  let report =
    Engine.run ~obs ~budget ~on_world ~jobs ~store:(Session.store session)
      ~replicate:(fun () -> Session.borrow_replica session)
      ~release:(Session.return_replica session)
      ~groups ~worlds ~eval ()
  in
  let n = report.Engine.evaluated in
  counters.worlds <- counters.worlds + n;
  if count_cliques then counters.cliques <- counters.cliques + n;
  (* The engine counts only up to the winning group, so these obs
     counters are deterministic across job counts. *)
  if Obs.enabled obs then begin
    if count_cliques then Obs.add obs "dcsat.cliques" n;
    Obs.add obs "dcsat.worlds" n
  end;
  report

(* The maximal cliques of the fd graph restricted to [nodes], as
   candidate sets in original transaction ids. [interrupt] (a budget's
   deadline hook) is threaded into the clique generator, so a long
   inter-yield search is still cut promptly. *)
let clique_source ?interrupt obs fd nodes =
  let sub, back = Undirected.induced fd.Fd_graph.graph nodes in
  let next = Engine.Work_source.of_cliques ?interrupt sub ~back in
  if not (Obs.enabled obs) then next
  else fun () -> Obs.span obs ~cat:"dcsat" "bk_yield" next

(* Walk the maximal cliques of the given transactions (Fig. 4's loop);
   [groups] yields the transaction sets with [members] projecting them. *)
let run_cliques ~jobs ~budget ~on_event session counters evaluators ~members
    groups =
  let obs = Session.obs session in
  (* Forced here: workers must not race on the session's lazy graph. *)
  let fd = Session.fd_graph session in
  run_groups ~jobs ~budget ~on_event ~count_cliques:true session counters
    ~groups
    ~worlds:(fun ?interrupt _ g -> clique_source ?interrupt obs fd (members g))
    ~eval:(fun () -> eval_clique obs (evaluators ()))

(* Restore the store's active world on every exit path: neither a
   refusal, nor a pre-check decision, nor a full enumeration may leave
   the session in a surprising world. *)
let with_world_restored session k =
  let store = Session.store session in
  let saved = Tagged_store.world store in
  Fun.protect ~finally:(fun () -> Tagged_store.set_world store saved) k

(* NaiveDCSat and brute force are one group each: a second worker would
   only idle, and its idle domain still costs (Dense-18 NaiveDCSat ran
   about a fifth slower with one), so they always run on one. *)
let brute_force ?jobs:_ ?(budget = Engine.Budget.unlimited)
    ?(config = default) session q =
  with_world_restored session @@ fun () ->
  let t0 = Monotime.now () in
  let counters = fresh_counters () in
  let evaluators = evaluators config session (Session.plan session q) in
  let obs = Session.obs session in
  let report =
    run_groups ~jobs:1 ~budget ~on_event:ignore ~count_cliques:false session
      counters
      ~groups:(Engine.Work_source.of_list [ () ])
      ~worlds:(fun ?interrupt:_ store () ->
        let next = Poss.generator store in
        fun () -> Option.map Bitset.to_list (next ()))
      ~eval:(fun () -> eval_txs obs (evaluators ()))
  in
  finish ~t0 ~precheck:false counters
    (verdict_of ~violation:report.Engine.hit ~exhausted:report.Engine.exhausted)

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
        (ev.Engine.violation, None)
      end
      else enumerate k counters evaluators
    in
    Ok (finish ~t0 ~precheck:false counters (verdict_of ~violation ~exhausted))
  end

let naive ?jobs:_ ?(budget = Engine.Budget.unlimited) ?(config = default)
    ?(on_event = ignore) session q =
  require_monotone q @@ fun () ->
  solve_monotone ~config ~on_event session q @@ fun k counters evaluators ->
  let report =
    run_cliques ~jobs:1 ~budget ~on_event session counters evaluators
      ~members:Fun.id
      (Engine.Work_source.of_list [ List.init k Fun.id ])
  in
  (report.Engine.hit, report.Engine.exhausted)

let opt ?(jobs = 1) ?(budget = Engine.Budget.unlimited) ?(config = default)
    ?(on_event = ignore) ?comp_hooks session q =
  require_monotone q @@ fun () ->
  match q with
  | Q.Query.Aggregate _ -> Error `Not_connected
  | Q.Query.Boolean body when not (Q.Gaifman.is_connected body) ->
      Error `Not_connected
  | Q.Query.Boolean _ ->
      solve_monotone ~config ~on_event session q @@ fun _ counters evaluators ->
      let store = Session.store session in
      let obs = Session.obs session in
      let comps =
        Array.of_list
          (Obs.span obs ~cat:"dcsat" "ind_graph" (fun () ->
               Session.ind_components session q))
      in
      let n = Array.length comps in
      counters.comps <- n;
      if Obs.enabled obs then Obs.add obs "dcsat.components" n;
      on_event (Components_found n);
      (* The claim path (Fig. 5's loop), in component index order: a
         cached Satisfied component is skipped, a cached Violated one
         ends the claims (it wins unless a lower-index group violates),
         a dirty one is Covers-tested and, if covered, claimed. *)
      let next = ref 0 and skipped = ref [] and cached = ref None in
      let rec groups () =
        if !next >= n || Option.is_some !cached then None
        else begin
          let i = !next in
          incr next;
          let c = comps.(i) in
          match Option.bind comp_hooks (fun h -> h.comp_clean ~index:i c) with
          | Some Comp_satisfied -> groups ()
          | Some (Comp_violated { world; witness }) ->
              cached := Some (i, { Engine.world; witness });
              None
          | None ->
              if
                Obs.span obs ~cat:"dcsat" "covers" (fun () ->
                    Covers.covers store c q)
              then begin
                on_event (Component_entered c);
                Some (i, c)
              end
              else begin
                (* Satisfied without enumeration. *)
                on_event (Component_skipped c);
                skipped := i :: !skipped;
                groups ()
              end
        end
      in
      let report =
        run_cliques ~jobs:(min jobs n) ~budget ~on_event session counters
          evaluators ~members:snd groups
      in
      counters.covered <- List.length report.Engine.groups;
      (* The winning component: an engine winner is the last counted
         group, and it beats a cached violation (claims stopped there). *)
      let winner =
        match (report.Engine.hit, !cached) with
        | Some v, _ ->
            let (i, _), _ = List.hd (List.rev report.Engine.groups) in
            Some (i, v)
        | None, cached -> cached
      in
      Option.iter
        (fun hooks ->
          (* Every component decided below the winner: Covers-skipped
             ones and solved groups; budget-cut groups stay uncached. *)
          let limit = match winner with Some (i, _) -> i | None -> n in
          let solved =
            List.filter_map
              (fun ((i, _), verdict) ->
                match verdict with
                | Engine.Satisfied -> Some (i, Comp_satisfied)
                | Engine.Violated { Engine.world; witness } ->
                    Some (i, Comp_violated { world; witness })
                | Engine.Unknown _ -> None)
              report.Engine.groups
            @ List.filter_map
                (fun i -> if i < limit then Some (i, Comp_satisfied) else None)
                !skipped
          in
          List.iter
            (fun (i, verdict) -> hooks.comp_solved ~index:i comps.(i) verdict)
            (List.sort (fun (a, _) (b, _) -> Int.compare a b) solved))
        comp_hooks;
      (Option.map snd winner, report.Engine.exhausted)
