(* Differential suite for the incremental evaluation layer: on random
   databases and random monotone denial constraints, the delta-seeded
   evaluator must be *indistinguishable* from from-scratch evaluation —
   identical verdicts, identical canonical witnesses — over arbitrary
   world sequences (including revisits, which exercise the replay path)
   and across repeated solver runs on one session (which exercise the
   per-store world cache and the ind-component cache). CI runs the
   suite with BCDB_TEST_JOBS=1 and =4. *)

module R = Relational
module V = R.Value
module Q = Bcquery
module Core = Bccore

let par_jobs =
  match Sys.getenv_opt "BCDB_TEST_JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* Same mixed-constraint generator family as test_agreement: keys and
   inclusion dependencies over Node/Edge give the solver real clique and
   component structure to cache across. *)

let node = R.Schema.relation "Node" [ "id"; "colour" ]
let edge = R.Schema.relation "Edge" [ "src"; "dst" ]
let cat = R.Schema.of_list [ node; edge ]

let constraints =
  [
    R.Constr.key node [ "id" ];
    R.Constr.ind ~sub:edge [ "src" ] ~sup:node [ "id" ];
    R.Constr.ind ~sub:edge [ "dst" ] ~sup:node [ "id" ];
  ]

let node_row id colour = ("Node", R.Tuple.make [ V.Int id; V.Str colour ])
let edge_row s d = ("Edge", R.Tuple.make [ V.Int s; V.Int d ])
let colours = [| "red"; "green"; "blue" |]

let random_db rng =
  let state = R.Database.create cat in
  R.Database.insert_all state
    [ node_row 0 "red"; node_row 1 "red"; node_row 2 "red"; edge_row 0 1 ];
  let k = 2 + Random.State.int rng 5 in
  let random_tx () =
    let rows = 1 + Random.State.int rng 2 in
    List.init rows (fun _ ->
        if Random.State.bool rng then
          node_row
            (3 + Random.State.int rng 4)
            colours.(Random.State.int rng 3)
        else edge_row (Random.State.int rng 7) (Random.State.int rng 7))
  in
  Core.Bcdb.create_exn ~state ~constraints
    ~pending:(List.init k (fun _ -> random_tx ()))
    ()

(* Monotone bodies only — the delta path's territory. Aggregates ride
   along to exercise the incremental accumulators (count/sum/max/min)
   and their fallback rules. *)
let queries =
  [
    {| q() :- Node(i, "green"). |};
    {| q() :- Edge(s, d), Node(s, "red"), Node(d, c). |};
    {| q() :- Edge(s, d), Edge(d, e), s != e. |};
    {| q() :- Node(4, c). |};
    {| q() :- Edge(s, d), Node(d, "blue"). |};
    "q(count()) :- Edge(s, d) | > 2.";
    {| q(sum(s)) :- Edge(s, d) | > 6. |};
    {| q(max(i)) :- Node(i, c) | > 5. |};
    {| q(min(d)) :- Edge(s, d) | < 1. |};
    {| q(cntd(c)) :- Node(i, c) | > 2. |};
  ]

let parse qi = Q.Parser.parse_exn ~catalog:cat (List.nth queries qi)

(* --- Direct differential: eval_world over random world sequences --- *)

(* Both evaluators see the same store and the same world sequence; the
   delta one may answer from its cache (replay / delta-seeded search),
   the baseline always runs the full join. Every answer — verdict and
   canonical witness — must be identical. Worlds repeat with high
   probability (draws from a small pool), so the replay path fires. *)
let eval_world_differential =
  QCheck.Test.make
    ~name:"eval_world: delta-seeded = from-scratch over world sequences"
    ~count:150
    QCheck.(pair (int_bound 100_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let session = Core.Session.create db in
      let store = Core.Session.store session in
      let n = Core.Tagged_store.tx_count store in
      let q = parse qi in
      let plan = Core.Session.plan session q in
      let inc = Core.Inc_eval.evaluator ~use_delta:true plan in
      let full = Core.Inc_eval.evaluator ~use_delta:false plan in
      (* A small pool of random worlds, then a longer sequence drawn
         from it with repetition. *)
      let pool =
        Array.init 6 (fun _ ->
            List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id))
      in
      let steps =
        List.init 25 (fun _ -> pool.(Random.State.int rng (Array.length pool)))
      in
      List.for_all
        (fun world ->
          let a = Core.Inc_eval.eval_world inc store world in
          let b = Core.Inc_eval.eval_world full store world in
          a = b)
        steps)

(* --- Solver-level differential: delta on = off, across repeats --- *)

let no_precheck = { Core.Dcsat.default with precheck = false }

(* One session solves the same constraint three times with the delta
   machinery on (run 2 and 3 hit the world cache, the maximal-world
   memo, and — for Opt — the ind-component cache); a fresh session
   solves once with delta off. All four outcomes must agree on the
   verdict, the witness world and the witness. Through [Solver.solve]
   the pre-check decides most instances; OptDCSat with the pre-check
   off reaches the components, which at jobs=1 all evaluate on the
   session's primary store and so also share that history with each
   other. *)
let solver_differential =
  QCheck.Test.make
    ~name:"solve: use_delta:true (repeated) = use_delta:false (fresh)"
    ~count:80
    QCheck.(pair (int_bound 100_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let q = parse qi in
      let result r =
        Result.map
          (fun (o : Core.Dcsat.outcome) ->
            (o.Core.Dcsat.verdict, o.Core.Dcsat.witness_world, o.Core.Dcsat.witness))
          r
      in
      let repeated solve config =
        let fresh = Core.Session.create db in
        let expected = result (solve { config with Core.Dcsat.delta = false } fresh) in
        let session = Core.Session.create db in
        List.for_all
          (fun () -> result (solve config session) = expected)
          [ (); (); () ]
      in
      repeated
        (fun config s ->
          Result.map fst (Core.Solver.solve ~jobs:par_jobs ~config s q))
        Core.Dcsat.default
      && repeated
           (fun config s -> Core.Dcsat.opt ~config ~jobs:par_jobs s q)
           no_precheck)

(* --- Algorithm-level differentials over solver configs --- *)

(* A property that every config in [configs] gives [reference]'s
   verdict, witness world and witness, on Naive and Opt alike. With the
   pre-check off the clique walk runs even when R ∪ T already refutes q,
   driving many more worlds through the evaluator; with delta off those
   worlds take the full evaluation instead. *)
let config_differential ~name ~reference configs =
  QCheck.Test.make ~name ~count:60
    QCheck.(pair (int_bound 100_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let q = parse qi in
      let result (r : (Core.Dcsat.outcome, _) result) =
        Result.map
          (fun (o : Core.Dcsat.outcome) ->
            (o.Core.Dcsat.verdict, o.Core.Dcsat.witness_world, o.Core.Dcsat.witness))
          r
      in
      let agree run =
        let expected = result (run reference (Core.Session.create db)) in
        List.for_all
          (fun config -> result (run config (Core.Session.create db)) = expected)
          configs
      in
      agree (fun config s -> Core.Dcsat.naive ~config ~jobs:par_jobs s q)
      && agree (fun config s -> Core.Dcsat.opt ~config ~jobs:par_jobs s q))

let all_configs_differential =
  config_differential ~name:"naive/opt: every config = default"
    ~reference:Core.Dcsat.default
    (List.concat_map
       (fun precheck ->
         List.map (fun delta -> { Core.Dcsat.precheck; delta }) [ true; false ])
       [ true; false ])

let algo_differential =
  config_differential
    ~name:"naive/opt: delta on = off with pre-check disabled"
    ~reference:no_precheck
    [ { no_precheck with delta = false } ]

(* --- The one evaluator: its entry points and the delta seeding --- *)

(* A random plain database over Node/Edge, grown by [rows] insertions;
   returns the rows that were new. *)
let grow rng state rows =
  List.filter_map
    (fun _ ->
      let rel, tuple =
        if Random.State.bool rng then
          node_row (Random.State.int rng 7) colours.(Random.State.int rng 3)
        else edge_row (Random.State.int rng 7) (Random.State.int rng 7)
      in
      if R.Database.insert state rel tuple then Some (rel, tuple) else None)
    (List.init rows Fun.id)

let matches src ev =
  let acc = ref [] in
  Q.Eval.iter_matches src ev (fun values support ->
      acc := (Array.copy values, support) :: !acc;
      `Continue);
  !acc

(* Raw evaluator level, on a plain database source: [find_witness]
   exists exactly when [iter_matches] reports a match, and its
   assignment is one of them; [count_matches] is the bag's size;
   [eval_compiled] of a boolean body is the bag's non-emptiness, and an
   aggregate's value is [None] exactly on the empty bag. *)
let entry_points_agree =
  QCheck.Test.make
    ~name:"Eval: find_witness / iter_matches / count_matches / eval_compiled agree"
    ~count:150
    QCheck.(pair (int_bound 100_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed |] in
      let state = R.Database.create cat in
      R.Database.insert_all state
        [ node_row 0 "red"; node_row 1 "green"; edge_row 0 1 ];
      ignore (grow rng state (3 + Random.State.int rng 12));
      let src = R.Database.source state in
      let q = parse qi in
      let body = Q.Eval.body_of q in
      let c = Q.Eval.evaluator (Q.Eval.compile body) in
      let bag = List.map fst (matches src c) in
      let witness_ok =
        match Q.Eval.find_witness src c with
        | None -> bag = []
        | Some w ->
            let values = Array.of_list (List.map snd w) in
            List.exists (fun m -> compare m values = 0) bag
      in
      let verdict_ok =
        match q with
        | Q.Query.Boolean _ -> Q.Eval.eval_compiled src q c = (bag <> [])
        | Q.Query.Aggregate a ->
            Option.is_none (Q.Eval.aggregate_value src c a) = (bag = [])
            && ((bag <> []) || not (Q.Eval.eval_compiled src q c))
      in
      witness_ok && verdict_ok
      && Q.Eval.count_matches src body = List.length bag
      && List.length (List.sort_uniq compare bag) = List.length bag)

(* [run_delta]'s contract, checked directly: after inserting Δ into a
   database, the matches before plus the delta-seeded matches are
   exactly the matches after, and every delta-seeded match maps at
   least one positive atom to a Δ-tuple. The pool is negation-free, so
   the contract applies to every query in it. *)
let run_delta_semi_naive =
  QCheck.Test.make
    ~name:"run_delta: matches before + delta-seeded = matches after" ~count:150
    QCheck.(pair (int_bound 100_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed; 0xD1 |] in
      let state = R.Database.create cat in
      R.Database.insert_all state [ node_row 0 "red"; edge_row 0 1 ];
      ignore (grow rng state (Random.State.int rng 10));
      let c = Q.Eval.compile (Q.Eval.body_of (parse qi)) in
      let ev = Q.Eval.evaluator c in
      let before = List.map fst (matches (R.Database.source state) ev) in
      let added = grow rng state (1 + Random.State.int rng 8) in
      let src = R.Database.source state in
      let after = List.map fst (matches src ev) in
      let delta rel =
        List.filter_map (fun (r, t) -> if r = rel then Some t else None) added
      in
      let seeded = ref [] in
      let seeded_ok = ref true in
      Q.Eval.run_delta src ev ~delta (fun values support ->
          seeded := Array.copy values :: !seeded;
          if not (List.exists (fun rt -> List.mem rt added) support) then
            seeded_ok := false;
          `Continue);
      (not (Q.Eval.has_negation c))
      && !seeded_ok
      && List.sort_uniq compare (before @ !seeded) = List.sort_uniq compare after)

(* Inc_eval level: [eval_bool] reads the store's current world through
   the same world cache as [eval_world] without switching it, and
   [eval_source] over the world's source is the cache-free reference.
   Steps alternate between [eval_world] and a bare [set_world_list]
   followed by [eval_bool], over a sequence with revisits, so
   [eval_bool] answers by replay, by delta seeding and by full search.
   All must agree with a from-scratch [eval_compiled]. *)
let eval_bool_differential =
  QCheck.Test.make
    ~name:"eval_bool / eval_source = eval_world over world sequences"
    ~count:100
    QCheck.(pair (int_bound 100_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed; 0xB0 |] in
      let db = random_db rng in
      let session = Core.Session.create db in
      let store = Core.Session.store session in
      let n = Core.Tagged_store.tx_count store in
      let q = parse qi in
      let plan = Core.Session.plan session q in
      let inc = Core.Inc_eval.evaluator plan in
      let full = Core.Inc_eval.evaluator ~use_delta:false plan in
      let pool =
        Array.init 5 (fun _ ->
            List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id))
      in
      List.for_all
        (fun step ->
          let world = pool.(Random.State.int rng (Array.length pool)) in
          let via_world =
            if step mod 2 = 0 then
              Some
                ((Core.Inc_eval.eval_world inc store world).Core.Engine.violation
                <> None)
            else (
              Core.Tagged_store.set_world_list store world;
              None)
          in
          let current = Core.Tagged_store.world store in
          let reference =
            Q.Eval.eval_compiled (Core.Tagged_store.source store) q
              (Q.Eval.evaluator (Core.Inc_eval.body plan))
          in
          let cached = Core.Inc_eval.eval_bool inc store in
          Bcgraph.Bitset.equal current (Core.Tagged_store.world store)
          && cached = reference
          && Core.Inc_eval.eval_bool full store = reference
          && Core.Inc_eval.eval_source full (Core.Tagged_store.source store)
             = reference
          && (via_world = None || via_world = Some reference))
        (List.init 24 Fun.id))

(* --- The [R ∪ T] pre-check reads a fixed view, never a world --- *)

(* From an arbitrary active world, the pre-check's evaluation over
   {!Core.Tagged_store.union_source} must agree
   with evaluating the plan over the store's world source after
   [all_visible], and must leave the active world and its epoch as they
   were. A solve the pre-check decides must not move them either. *)
let precheck_union_view =
  QCheck.Test.make ~name:"precheck over union_source = eval after all_visible"
    ~count:150
    QCheck.(pair (int_bound 100_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed; 0x0AE |] in
      let db = random_db rng in
      let session = Core.Session.create db in
      let store = Core.Session.store session in
      let n = Core.Tagged_store.tx_count store in
      let q = parse qi in
      let plan = Core.Session.plan session q in
      Core.Tagged_store.set_world_list store
        (List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id));
      let unmoved (world, epoch) =
        Bcgraph.Bitset.equal world (Core.Tagged_store.world store)
        && epoch = Core.Tagged_store.epoch store
      in
      let before = (Core.Tagged_store.world store, Core.Tagged_store.epoch store) in
      let matched =
        Core.Inc_eval.eval_source
          (Core.Inc_eval.evaluator plan)
          (Core.Tagged_store.union_source store)
      in
      let views_unmoved = unmoved before in
      let decided =
        match Core.Dcsat.naive session q with
        | Ok o -> Some o.Core.Dcsat.stats.Core.Dcsat.precheck_decided
        | Error _ -> None
      in
      let solve_unmoved = decided <> Some true || unmoved before in
      Core.Tagged_store.all_visible store;
      let reference =
        Q.Eval.eval_compiled (Core.Tagged_store.source store) q
          (Q.Eval.evaluator (Core.Inc_eval.body plan))
      in
      views_unmoved && solve_unmoved
      && matched = reference
      && (decided = None || decided = Some (not reference)))

let () =
  Alcotest.run "inc_eval"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest eval_world_differential;
          QCheck_alcotest.to_alcotest solver_differential;
          QCheck_alcotest.to_alcotest algo_differential;
          QCheck_alcotest.to_alcotest all_configs_differential;
          QCheck_alcotest.to_alcotest precheck_union_view;
        ] );
      ( "evaluator",
        [
          QCheck_alcotest.to_alcotest entry_points_agree;
          QCheck_alcotest.to_alcotest run_delta_semi_naive;
          QCheck_alcotest.to_alcotest eval_bool_differential;
        ] );
    ]
