module Q = Bcquery
module R = Relational
module Bitset = Bcgraph.Bitset

(* Incremental (delta-seeded) query evaluation across worlds.

   The solver evaluates one constraint over thousands of possible
   worlds that differ by a handful of transactions — consecutive
   Bron–Kerbosch cliques share large prefixes, and repeated solves of
   one constraint on an unchanged session revisit the very same worlds.
   A {!plan} compiles the constraint body once; an evaluator then keeps,
   per (store, plan), a small LRU of recently evaluated worlds (their
   bitset, verdict, canonical witness and — for aggregates — the
   accumulator). Evaluating the current world first looks for a cached
   world at transaction-level distance zero (pure replay), then seeds a
   semi-naive delta search ({!Bcquery.Eval.run_delta}) from the nearest
   cached world instead of re-running the full join.

   Soundness of the delta path rests on monotonicity: for a
   negation-free body, a world's match set grows with its visible
   tuples, so relative to a cached {e no-match} world every match of the
   current world must use a tuple visible now but not then — exactly the
   Δ-set {!Tagged_store.world_delta} materializes. Removed transactions
   need no handling on the boolean path (current ⊆ cached ∪ Δ); the
   aggregate path additionally requires an insert-only delta so the
   cached accumulator stays a correct partial sum. Everything else —
   negated atoms, Cntd, a cached world that already matched, a delta too
   large to be cheaper than a fresh search — falls back to full
   evaluation, so the fast path is an optimization, never a semantic
   fork. *)

type plan = {
  query : Q.Query.t;
  body : Q.Eval.compiled;
  delta_rels : string list;  (* distinct relations of the positive atoms *)
  monotone_body : bool;  (* no negated atoms: match set grows with tuples *)
  agg : Q.Query.aggregate option;
  incremental_agg : bool;  (* accumulator-maintainable aggregate kind *)
}

let plan query =
  let body = Q.Eval.compile (Q.Eval.body_of query) in
  let agg =
    match query with
    | Q.Query.Boolean _ -> None
    | Q.Query.Aggregate a -> Some a
  in
  {
    query;
    body;
    delta_rels =
      List.sort_uniq String.compare (Q.Eval.positive_relations body);
    monotone_body = not (Q.Eval.has_negation body);
    agg;
    incremental_agg =
      (match agg with
      | None -> false
      | Some a -> (
          match a.Q.Query.agg with
          | Q.Query.Count | Q.Query.Sum | Q.Query.Max | Q.Query.Min -> true
          (* Cntd needs the distinct-value set, not a scalar accumulator. *)
          | Q.Query.Cntd -> false));
  }

let query p = p.query
let body p = p.body

(* --- aggregate accumulators --- *)

type acc = { n : int; sum : R.Value.t; extreme : R.Value.t option }

let acc_empty = { n = 0; sum = R.Value.zero; extreme = None }

let acc_add p (a : Q.Query.aggregate) acc values =
  let projected () = (Q.Eval.project_compiled p.body a.Q.Query.agg_args values).(0) in
  match a.Q.Query.agg with
  | Q.Query.Count -> { acc with n = acc.n + 1 }
  | Q.Query.Sum -> { acc with n = acc.n + 1; sum = R.Value.add acc.sum (projected ()) }
  | Q.Query.Max | Q.Query.Min ->
      let combine =
        match a.Q.Query.agg with
        | Q.Query.Max -> R.Value.max_v
        | _ -> R.Value.min_v
      in
      let v = projected () in
      {
        acc with
        n = acc.n + 1;
        extreme = Some (match acc.extreme with None -> v | Some w -> combine v w);
      }
  | Q.Query.Cntd -> assert false

let acc_value (a : Q.Query.aggregate) acc =
  if acc.n = 0 then None (* empty bag *)
  else
    match a.Q.Query.agg with
    | Q.Query.Count -> Some (R.Value.Int acc.n)
    | Q.Query.Sum -> Some acc.sum
    | Q.Query.Max | Q.Query.Min -> acc.extreme
    | Q.Query.Cntd -> assert false

let acc_matched (a : Q.Query.aggregate) acc =
  match acc_value a acc with
  | None -> false
  | Some v -> Q.Eval.theta_holds a.Q.Query.theta v a.Q.Query.threshold

(* Inserts can only move these aggregates toward their threshold, so the
   delta accumulation may stop as soon as θ holds — the verdict is final
   for this world even though the accumulator is not. *)
let theta_early_exit (a : Q.Query.aggregate) =
  match (a.Q.Query.agg, a.Q.Query.theta) with
  | Q.Query.Count, Q.Query.Gt
  | Q.Query.Max, Q.Query.Gt
  | Q.Query.Min, Q.Query.Lt ->
      true
  | _ -> false

(* --- per-(store, plan) cached worlds --- *)

type entry = {
  world : Bitset.t;  (* private copy of the evaluated world *)
  matched : bool;
  witness : (string * R.Value.t) list option;  (* canonical, boolean only *)
  acc : acc option;  (* complete aggregate accumulator *)
}

type state = {
  mutable for_db : Bcdb.t;  (* entries valid only against this database *)
  mutable for_state_gen : int;
      (* generation stamp of [for_db]'s state R when the entries were
         cached; catches in-place mutation of R behind an unchanged
         physical database value (the [serve] access pattern). *)
  mutable entries : entry list;  (* most recently used first, capped *)
}

let max_entries = 4

(* States live in a global weak-keyed registry so they persist exactly
   as long as the store handle does: a session's handle keeps its
   history across solver runs (a jobs>1 worker's view, made per run,
   keeps it for that run). One handle is only ever evaluated on by one
   domain at a time (the engine's no-shared-handle contract), so states
   need no lock of their own — only the registry itself is guarded. *)
module Registry = Ephemeron.K1.Make (struct
  type t = Tagged_store.t

  let equal = ( == )
  let hash = Tagged_store.uid
end)

let registry : (plan * state) list ref Registry.t = Registry.create 64
let registry_lock = Mutex.create ()

let state_for store plan =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) @@ fun () ->
  let states =
    match Registry.find_opt registry store with
    | Some l -> l
    | None ->
        let l = ref [] in
        Registry.replace registry store l;
        l
  in
  match List.find_opt (fun (p, _) -> p == plan) !states with
  | Some (_, st) -> st
  | None ->
      let st =
        {
          for_db = Tagged_store.db store;
          for_state_gen = Tagged_store.state_generation store;
          entries = [];
        }
      in
      states := (plan, st) :: !states;
      st

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let remember st e =
  let rest =
    List.filter (fun e' -> not (Bitset.equal e'.world e.world)) st.entries
  in
  st.entries <- e :: take (max_entries - 1) rest

(* --- the evaluator --- *)

type t = {
  plan : plan;
  ev : Q.Eval.evaluator;  (* this evaluator's prepared probes *)
  use_delta : bool;
  obs : Obs.t;
  mutable cached : (Tagged_store.t * state) option;  (* last store seen *)
}

let evaluator ?(use_delta = true) ?(obs = Obs.null) plan =
  { plan; ev = Q.Eval.evaluator plan.body; use_delta; obs; cached = None }

(* The evaluator's state for [store], with a one-slot physical-identity
   fast path (workers see one store for a whole engine run). A dry-run
   append/undo replaces the store's database value; cached worlds (and
   their bitset capacities) are then meaningless and are dropped. *)
let state_of t store =
  let st =
    match t.cached with
    | Some (s, st) when s == store -> st
    | _ ->
        let st = state_for store t.plan in
        t.cached <- Some (store, st);
        st
  in
  let gen = Tagged_store.state_generation store in
  if st.for_db != Tagged_store.db store || st.for_state_gen <> gen then begin
    st.for_db <- Tagged_store.db store;
    st.for_state_gen <- gen;
    st.entries <- []
  end;
  st

let count_full t = if Obs.enabled t.obs then Obs.add t.obs "eval.full" 1

let count_delta t tuples =
  if Obs.enabled t.obs then begin
    Obs.add t.obs "eval.delta" 1;
    if tuples > 0 then Obs.add t.obs "eval.delta_tuples" tuples
  end

let full_entry t store =
  count_full t;
  let p = t.plan in
  let src = Tagged_store.source store in
  let world = Tagged_store.world store in
  match p.agg with
  | None ->
      let witness = Q.Eval.find_witness src t.ev in
      { world; matched = witness <> None; witness; acc = None }
  | Some a ->
      if p.incremental_agg then begin
        let acc = ref acc_empty in
        Q.Eval.iter_matches src t.ev (fun values _ ->
            acc := acc_add p a !acc values;
            `Continue);
        { world; matched = acc_matched a !acc; witness = None; acc = Some !acc }
      end
      else
        {
          world;
          matched = Q.Eval.eval_compiled src p.query t.ev;
          witness = None;
          acc = None;
        }

(* Number of Δ-tuples the seeded search will consider: one count per
   {e distinct} relation among the positive atoms (an atom pair on one
   relation reuses the same Δ-list). *)
let delta_tuple_count p delta_fn =
  List.fold_left (fun n rel -> n + List.length (delta_fn rel)) 0 p.delta_rels

(* Delta evaluation is worth attempting when the transaction-level
   frontier is small next to the world: the seeded search costs
   O(|Δ-tuples| × join), a full search with early exit is often cheap,
   and e.g. the hop from a small enumerated world to a much larger one
   is better evaluated afresh. *)
let worthwhile added_txs k = added_txs * 4 <= max 4 k

let delta_boolean t store (e : entry) (d : Tagged_store.world_delta) =
  let p = t.plan in
  let src = Tagged_store.source store in
  let delta_fn = Lazy.force d.Tagged_store.added in
  count_delta t (delta_tuple_count p delta_fn);
  let found = ref false in
  Q.Eval.run_delta src t.ev ~delta:delta_fn (fun _ _ ->
      found := true;
      `Stop);
  ignore e;
  let world = Tagged_store.world store in
  if not !found then { world; matched = false; witness = None; acc = None }
  else
    (* Re-derive the witness with the full (deterministically ordered)
       search, so delta and from-scratch evaluation return the identical
       canonical assignment. This runs at most once per solve — the
       engine stops at the first violation. *)
    let witness = Q.Eval.find_witness src t.ev in
    { world; matched = true; witness; acc = None }

let delta_aggregate t store a (acc0 : acc) (d : Tagged_store.world_delta) =
  let p = t.plan in
  let src = Tagged_store.source store in
  let delta_fn = Lazy.force d.Tagged_store.added in
  count_delta t (delta_tuple_count p delta_fn);
  (* [run_delta] reports an assignment once per positive atom it maps to
     a Δ-tuple: deduplicate within the batch on the full variable
     assignment (the values array is a fresh tuple per match). Across
     batches no dedup is needed — a match using a Δ-tuple cannot have
     existed in the cached world. *)
  let seen = R.Tuple.Tbl.create 32 in
  let acc = ref acc0 in
  let early = theta_early_exit a in
  let complete = ref true in
  Q.Eval.run_delta src t.ev ~delta:delta_fn (fun values _ ->
      if R.Tuple.Tbl.mem seen values then `Continue
      else begin
        R.Tuple.Tbl.replace seen values ();
        acc := acc_add p a !acc values;
        if early && acc_matched a !acc then begin
          (* θ holds and inserts can only push further past it: the
             verdict is final, the (now partial) accumulator is not. *)
          complete := false;
          `Stop
        end
        else `Continue
      end);
  let world = Tagged_store.world store in
  if !complete then
    { world; matched = acc_matched a !acc; witness = None; acc = Some !acc }
  else { world; matched = true; witness = None; acc = None }

(* Evaluate the plan over the store's {e current} world, consulting and
   updating the per-(store, plan) world cache. *)
let eval_current t store =
  if not t.use_delta then full_entry t store
  else begin
    let st = state_of t store in
    let p = t.plan in
    let deltas =
      List.map (fun e -> (e, Tagged_store.world_delta store ~prev:e.world)) st.entries
    in
    let replay =
      List.find_opt
        (fun ((_, d) : entry * Tagged_store.world_delta) ->
          d.Tagged_store.added_txs = 0 && d.Tagged_store.removed_txs = 0)
        deltas
    in
    let entry =
      match replay with
      | Some (e, _) ->
          count_delta t 0;
          e
      | None -> (
          let applicable ((e, d) : entry * Tagged_store.world_delta) =
            p.monotone_body
            &&
            match p.agg with
            | None ->
                (* Boolean: sound relative to a no-match world even with
                   removals (current ⊆ cached ∪ Δ). *)
                not e.matched
            | Some _ ->
                (* Aggregate: the cached accumulator stays a correct
                   partial result only under an insert-only delta. *)
                p.incremental_agg && e.acc <> None
                && d.Tagged_store.removed_txs = 0
          in
          let best =
            List.fold_left
              (fun best cand ->
                if not (applicable cand) then best
                else
                  match best with
                  | Some ((_, bd) : entry * Tagged_store.world_delta)
                    when bd.Tagged_store.added_txs
                         <= (snd cand).Tagged_store.added_txs ->
                      best
                  | _ -> Some cand)
              None deltas
          in
          match best with
          | Some (e, d)
            when worthwhile d.Tagged_store.added_txs (Tagged_store.tx_count store)
            -> (
              match t.plan.agg with
              | None -> delta_boolean t store e d
              | Some a -> (
                  match e.acc with
                  | Some acc0 -> delta_aggregate t store a acc0 d
                  | None -> assert false (* [applicable] checked it *)))
          | _ -> full_entry t store)
    in
    remember st entry;
    entry
  end

let eval_bool t store =
  let e = eval_current t store in
  e.matched

let eval_source t src =
  count_full t;
  Q.Eval.eval_compiled src t.plan.query t.ev

let eval_world t store txs =
  Tagged_store.set_world_list store txs;
  let e = eval_current t store in
  let violation =
    if e.matched then Some { Engine.world = txs; witness = e.witness } else None
  in
  { Engine.world = txs; violation }
