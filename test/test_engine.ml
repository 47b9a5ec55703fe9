(* Engine robustness: cooperative budgets (deadline / max-worlds)
   surfacing as three-valued verdicts, the clique generator's interrupt
   hook, and exception safety of both backends — a raising eval must
   propagate to the caller, release every borrowed replica, and leave
   the helper-domain pool reusable — plus solver-level differentials:
   the jobs=4 pool against jobs=1, OptDCSat's budget prefixes, and its
   verdict-cache hooks against the hook-free run. *)

module Core = Bccore
module Engine = Core.Engine
module R = Relational
module V = R.Value
module Q = Bcquery

(* CI runs the suite once with BCDB_TEST_JOBS=1 and once with
   BCDB_TEST_JOBS=4, exercising the same assertions against the
   sequential and parallel backends. *)
let par_jobs =
  match Sys.getenv_opt "BCDB_TEST_JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* --- Budget unit tests --- *)

let test_budget_create () =
  Alcotest.(check bool) "unlimited is unlimited" true
    (Engine.Budget.is_unlimited Engine.Budget.unlimited);
  Alcotest.(check bool) "create () is unlimited" true
    (Engine.Budget.is_unlimited (Engine.Budget.create ()));
  Alcotest.(check bool) "bounded is not" false
    (Engine.Budget.is_unlimited (Engine.Budget.create ~max_worlds:5 ()));
  Alcotest.check_raises "negative timeout"
    (Invalid_argument "Engine.Budget.create: negative timeout") (fun () ->
      ignore (Engine.Budget.create ~timeout_s:(-1.0) ()));
  Alcotest.check_raises "NaN timeout"
    (Invalid_argument "Engine.Budget.create: NaN timeout") (fun () ->
      ignore (Engine.Budget.create ~timeout_s:Float.nan ()));
  Alcotest.check_raises "negative max_worlds"
    (Invalid_argument "Engine.Budget.create: negative max_worlds") (fun () ->
      ignore (Engine.Budget.create ~max_worlds:(-3) ()))

let test_budget_trips_sticky () =
  Alcotest.(check bool) "under the world limit" true
    (Engine.Budget.check (Engine.Budget.create ~max_worlds:3 ()) ~evaluated:2
    = None);
  let b = Engine.Budget.create ~timeout_s:0.01 ~max_worlds:3 () in
  Alcotest.(check bool) "max_worlds trips" true
    (Engine.Budget.check b ~evaluated:3 = Some Engine.Budget.Max_worlds);
  (* Once the deadline has passed too, the first reason still sticks. *)
  Unix.sleepf 0.02;
  Alcotest.(check bool) "first reason sticks" true
    (Engine.Budget.check b ~evaluated:0 = Some Engine.Budget.Max_worlds);
  Alcotest.(check bool) "interrupt fires" true (Engine.Budget.interrupt b ());
  Alcotest.(check bool) "tripped agrees" true
    (Engine.Budget.tripped b = Some Engine.Budget.Max_worlds)

let test_budget_deadline_interrupt () =
  let b = Engine.Budget.create ~timeout_s:0.0 () in
  (* The absolute deadline is already behind us. *)
  Alcotest.(check bool) "interrupt fires" true (Engine.Budget.interrupt b ());
  Alcotest.(check bool) "deadline recorded" true
    (Engine.Budget.tripped b = Some Engine.Budget.Deadline);
  let unlimited = Engine.Budget.unlimited in
  Alcotest.(check bool) "unlimited never fires" false
    (Engine.Budget.interrupt unlimited ())

(* --- generator interrupt hook --- *)

let diamond () =
  (* Two triangles sharing an edge: cliques {0,1,2} and {1,2,3}. *)
  let g = Bcgraph.Undirected.create 4 in
  List.iter
    (fun (i, j) -> Bcgraph.Undirected.add_edge g i j)
    [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ];
  g

let test_generator_interrupt () =
  let next = Bcgraph.Bron_kerbosch.generator ~interrupt:(fun () -> true) (diamond ()) in
  Alcotest.(check bool) "immediately exhausted" true (next () = None);
  let full = Bcgraph.Bron_kerbosch.generator ~interrupt:(fun () -> false) (diamond ()) in
  let count = ref 0 in
  let rec drain () =
    match full () with Some _ -> incr count; drain () | None -> () in
  drain ();
  Alcotest.(check int) "false interrupt enumerates all" 2 !count;
  (* Fire after the first yield: the generator must answer None from
     then on, even though a second clique exists. *)
  let fired = ref false in
  let partial =
    Bcgraph.Bron_kerbosch.generator ~interrupt:(fun () -> !fired) (diamond ())
  in
  Alcotest.(check bool) "first clique yields" true (partial () <> None);
  fired := true;
  Alcotest.(check bool) "then permanently None" true (partial () = None);
  Alcotest.(check bool) "still None" true (partial () = None)

(* --- budgeted solver runs: three-valued verdicts --- *)

let is_unknown (o : Core.Dcsat.outcome) =
  match o.Core.Dcsat.verdict with
  | Core.Dcsat.Unknown _ -> true
  | Core.Dcsat.Satisfied | Core.Dcsat.Violated _ -> false

let test_unknown_on_max_worlds jobs () =
  let session = Core.Session.create (Fixtures.paper_db ()) in
  let budget = Engine.Budget.create ~max_worlds:0 () in
  match Core.Dcsat.opt ~jobs ~budget session Fixtures.qs_u8 with
  | Error r -> Alcotest.failf "refused: %a" Core.Dcsat.pp_refusal r
  | Ok o ->
      Alcotest.(check bool) "verdict unknown" true (is_unknown o);
      Alcotest.(check bool) "not claimed satisfied" false o.Core.Dcsat.satisfied;
      Alcotest.(check bool) "no witness" true (o.Core.Dcsat.witness_world = None)

let test_unknown_on_deadline jobs () =
  let session = Core.Session.create (Fixtures.paper_db ()) in
  (* qs_u8 is true over R ∪ T, so the pre-check cannot decide and the
     enumeration must start — where the already-expired deadline trips
     at the first claim. *)
  let budget = Engine.Budget.create ~timeout_s:0.0 () in
  match Core.Dcsat.naive ~jobs ~budget session Fixtures.qs_u8 with
  | Error r -> Alcotest.failf "refused: %a" Core.Dcsat.pp_refusal r
  | Ok o -> (
      match o.Core.Dcsat.verdict with
      | Core.Dcsat.Unknown Engine.Budget.Deadline -> ()
      | v ->
          Alcotest.failf "expected Unknown deadline, got %s"
            (Core.Dcsat.verdict_name v))

let test_generous_budget_matches_unbudgeted jobs () =
  let session = Core.Session.create (Fixtures.paper_db ()) in
  let solve budget = Core.Dcsat.opt ~jobs ?budget session Fixtures.qs_u8 in
  match (solve None, solve (Some (Engine.Budget.create ~max_worlds:1_000 ()))) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "same satisfied" a.Core.Dcsat.satisfied
        b.Core.Dcsat.satisfied;
      Alcotest.(check (option (list int)))
        "same witness world" a.Core.Dcsat.witness_world
        b.Core.Dcsat.witness_world;
      Alcotest.(check bool) "untripped budget is not Unknown" false
        (is_unknown b)
  | _ -> Alcotest.fail "solver refused the paper query"

(* A violation found within the budget must be reported as Violated
   even though the budget would have tripped soon after: the
   counterexample is sound regardless of the unexplored suffix. *)
let test_violation_beats_exhaustion jobs () =
  let session = Core.Session.create (Fixtures.paper_db ()) in
  let budget = Engine.Budget.create ~max_worlds:1 () in
  match Core.Dcsat.opt ~jobs ~budget session Fixtures.qs_u8 with
  | Error r -> Alcotest.failf "refused: %a" Core.Dcsat.pp_refusal r
  | Ok o -> (
      (* The paper instance violates qs_u8 in the very first evaluated
         world, so even a one-world budget finds it. *)
      match o.Core.Dcsat.verdict with
      | Core.Dcsat.Violated _ -> ()
      | v ->
          Alcotest.failf "expected Violated, got %s"
            (Core.Dcsat.verdict_name v))

(* --- exception safety --- *)

exception Boom

let run_with_failing_eval ~jobs ~store ~replicate ~release items ~fail_on =
  Engine.run ~jobs ~store ~replicate ~release
    ~source:(Engine.Work_source.of_list items)
    ~eval:(fun () _store members ->
      if members = fail_on then raise Boom
      else { Engine.world = members; violation = None })
    ~on_item:ignore ~on_evaluated:ignore ()

let test_eval_raise_propagates jobs () =
  let store = Core.Tagged_store.create (Fixtures.paper_db ()) in
  let borrowed = ref 0 and released = ref 0 in
  let replicate () =
    incr borrowed;
    Core.Tagged_store.clone store
  in
  let release _ = incr released in
  let items = [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] in
  (match
     run_with_failing_eval ~jobs ~store ~replicate ~release items
       ~fail_on:[ 2 ]
   with
  | (_ : Engine.report) -> Alcotest.fail "expected the eval's exception"
  | exception Boom -> ());
  Alcotest.(check int) "every borrowed replica released" !borrowed !released;
  (* The engine (and its helper-domain pool) must stay usable: a clean
     run right after the failed one completes with full counts. *)
  let report =
    Engine.run ~jobs ~store ~replicate ~release
      ~source:(Engine.Work_source.of_list items)
      ~eval:(fun () _store members -> { Engine.world = members; violation = None })
      ~on_item:ignore ~on_evaluated:ignore ()
  in
  Alcotest.(check int) "clean rerun evaluates everything" 5
    report.Engine.evaluated;
  Alcotest.(check bool) "no violation" true (report.Engine.hit = None);
  Alcotest.(check bool) "no exhaustion" true (report.Engine.exhausted = None);
  Alcotest.(check int) "rerun replicas also released" !borrowed !released

let test_replicate_raise_propagates jobs () =
  (* Failures in replicate (not just eval) must unwind the same way. *)
  let store = Core.Tagged_store.create (Fixtures.paper_db ()) in
  let released = ref 0 in
  let replicate () = raise Boom in
  let release _ = incr released in
  if jobs <= 1 then begin
    (* The sequential backend evaluates on the primary store and never
       replicates, so a poisoned replicate is simply unused. *)
    let report =
      run_with_failing_eval ~jobs ~store ~replicate ~release
        [ [ 0 ]; [ 1 ] ]
        ~fail_on:[ 99 ]
    in
    Alcotest.(check int) "sequential run unaffected" 2 report.Engine.evaluated
  end
  else begin
    (match
       run_with_failing_eval ~jobs ~store ~replicate ~release
         [ [ 0 ]; [ 1 ] ]
         ~fail_on:[ 99 ]
     with
    | (_ : Engine.report) -> Alcotest.fail "expected replicate's exception"
    | exception Boom -> ());
    Alcotest.(check int) "nothing to release" 0 !released
  end

let jobs_cases name mk =
  [
    Alcotest.test_case (name ^ " (jobs=1)") `Quick (mk 1);
    Alcotest.test_case
      (Printf.sprintf "%s (jobs=%d)" name par_jobs)
      `Quick (mk par_jobs);
  ]

(* --- solver-level differential: jobs=1 vs the jobs=4 pool --- *)

let acct = R.Schema.relation "Acct" [ "id"; "val" ]
let cat = R.Schema.of_list [ acct ]
let acct_row id v = ("Acct", R.Tuple.make [ V.Int id; V.Str v ])

(* Random instances with heavy key conflicts: many pending writers of
   few distinct ids makes the fd graph dense — one big clique stream
   for the pool's workers to share. *)
let random_db rng =
  let state = R.Database.create cat in
  R.Database.insert_all state [ acct_row 9 "a" ];
  let k = 5 + Random.State.int rng 5 in
  let random_tx () =
    let rows = 1 + Random.State.int rng 2 in
    List.init rows (fun _ ->
        acct_row
          (Random.State.int rng 4)
          (if Random.State.bool rng then "a" else "b"))
  in
  Core.Bcdb.create_exn ~state
    ~constraints:[ R.Constr.key acct [ "id" ] ]
    ~pending:(List.init k (fun _ -> random_tx ()))
    ()

let queries =
  [
    {| q() :- Acct(x, "a"), Acct(x, "b"). |};
    {| q() :- Acct(0, v). |};
    {| q() :- Acct(x, "a"), Acct(y, "b"), x != y. |};
  ]

(* Everything observable except runtime must coincide: the pool's
   lowest-index winner is the sequential first violation, and its work
   counts are clamped to that index. *)
let same_outcome (a : Core.Dcsat.outcome) (b : Core.Dcsat.outcome) =
  let sa = a.Core.Dcsat.stats and sb = b.Core.Dcsat.stats in
  a.Core.Dcsat.satisfied = b.Core.Dcsat.satisfied
  && a.Core.Dcsat.witness_world = b.Core.Dcsat.witness_world
  && a.Core.Dcsat.witness = b.Core.Dcsat.witness
  && a.Core.Dcsat.verdict = b.Core.Dcsat.verdict
  && sa.Core.Dcsat.worlds_checked = sb.Core.Dcsat.worlds_checked
  && sa.Core.Dcsat.cliques_enumerated = sb.Core.Dcsat.cliques_enumerated
  && sa.Core.Dcsat.components_total = sb.Core.Dcsat.components_total
  && sa.Core.Dcsat.components_covered = sb.Core.Dcsat.components_covered
  && sa.Core.Dcsat.precheck_decided = sb.Core.Dcsat.precheck_decided

let pool_matches_sequential =
  QCheck.Test.make
    ~name:"naive/opt: jobs=4 pool = jobs=1 (verdict/witness/stats)"
    ~count:60
    QCheck.(pair (int_bound 100_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let session = Core.Session.create db in
      let q = Q.Parser.parse_exn ~catalog:cat (List.nth queries qi) in
      (* no precheck: force the enumeration on every instance *)
      let naive ~jobs =
        match Core.Dcsat.naive ~config:Fixtures.no_precheck ~jobs session q with
        | Ok o -> o
        | Error _ -> QCheck.assume_fail ()
      in
      let naive_ok = same_outcome (naive ~jobs:1) (naive ~jobs:4) in
      let opt_ok =
        match Core.Dcsat.opt ~config:Fixtures.no_precheck ~jobs:1 session q with
        | Error _ -> true (* disconnected: Naive covers it *)
        | Ok base -> (
            match Core.Dcsat.opt ~config:Fixtures.no_precheck ~jobs:4 session q with
            | Ok o -> same_outcome base o
            | Error _ -> false)
      in
      naive_ok && opt_ok)

(* A tripped budget must surface as Unknown and leave the session
   reusable: borrowed replicas handed back, a follow-up unbudgeted solve
   on the same session gives the exact answer. *)
let budget_trips_to_unknown () =
  let state = R.Database.create cat in
  let pending =
    (* 8 key-conflicting pairs: 2^8 maximal worlds, all satisfied *)
    List.concat_map
      (fun j -> [ [ acct_row j "a" ]; [ acct_row j "b" ] ])
      (List.init 8 Fun.id)
  in
  let db =
    Core.Bcdb.create_exn ~state
      ~constraints:[ R.Constr.key acct [ "id" ] ]
      ~pending ()
  in
  let session = Core.Session.create db in
  let q =
    Q.Parser.parse_exn ~catalog:cat {| q() :- Acct(x, "a"), Acct(x, "b"). |}
  in
  for _ = 1 to 2 do
    let budget = Core.Engine.Budget.create ~max_worlds:4 () in
    (match
       Core.Dcsat.naive ~config:Fixtures.no_precheck ~jobs:4 ~budget session q
     with
    | Ok o -> (
        match o.Core.Dcsat.verdict with
        | Core.Dcsat.Unknown _ -> ()
        | v -> Alcotest.failf "expected Unknown, got %s" (Core.Dcsat.verdict_name v))
    | Error _ -> Alcotest.fail "refused");
    match Core.Dcsat.naive ~config:Fixtures.no_precheck ~jobs:4 session q with
    | Ok o ->
        Alcotest.(check bool)
          "full solve after trip is exact" true o.Core.Dcsat.satisfied
    | Error _ -> Alcotest.fail "refused"
  done

(* --- OptDCSat: budget prefixes and the verdict-cache hooks --- *)

let opt_traced ?budget ?comp_hooks ~jobs session q =
  let events = ref [] in
  match
    Core.Dcsat.opt ~config:Fixtures.no_precheck ~jobs ?budget ?comp_hooks
      ~on_event:(fun e -> events := e :: !events)
      session q
  with
  | Ok o -> Some (o, List.rev !events)
  | Error _ -> None

(* The events up to and including the [k]-th World_evaluated; for
   [k = 0], up to and including Components_found (nothing is pulled). *)
let rec cut_after_worlds k = function
  | [] -> []
  | (Core.Dcsat.Components_found _ as e) :: _ when k = 0 -> [ e ]
  | (Core.Dcsat.World_evaluated _ as e) :: tl ->
      if k = 1 then [ e ] else e :: cut_after_worlds (k - 1) tl
  | e :: tl -> e :: cut_after_worlds k tl

(* A max-worlds budget of [k] cuts the jobs=1 run right after its [k]-th
   world: same events up to there, same counts, and [Unknown Max_worlds]
   exactly when the cut prefix holds no violation and the enumeration
   did not finish first. *)
let budget_prefix_holds session q =
  match opt_traced ~jobs:1 session q with
  | None -> true
  | Some (full, events) ->
      let total = full.Core.Dcsat.stats.Core.Dcsat.worlds_checked in
      List.for_all
        (fun k ->
          let budget = Engine.Budget.create ~max_worlds:k () in
          match opt_traced ~budget ~jobs:1 session q with
          | None -> false
          | Some (o, got) ->
              let prefix = cut_after_worlds k events in
              let count p = List.length (List.filter p prefix) in
              let entered =
                count (function
                  | Core.Dcsat.Component_entered _ -> true
                  | _ -> false)
              in
              let violated =
                count (function
                  | Core.Dcsat.World_evaluated (_, v) -> v
                  | _ -> false)
                > 0
              in
              let st = o.Core.Dcsat.stats in
              let expected_verdict =
                if k <= total && not violated then
                  Core.Dcsat.Unknown Engine.Budget.Max_worlds
                else full.Core.Dcsat.verdict
              in
              got = prefix
              && st.Core.Dcsat.worlds_checked = min k total
              && st.Core.Dcsat.cliques_enumerated = min k total
              && st.Core.Dcsat.components_covered = entered
              && o.Core.Dcsat.verdict = expected_verdict)
        (List.init (total + 2) Fun.id)

(* Hooks that never report a component clean re-solve everything: the
   scheduled run must answer exactly as the hook-free one, and report
   every component back once, in ascending index order. *)
let all_dirty_matches_no_hooks session q =
  match opt_traced ~jobs:1 session q with
  | None -> true
  | Some (base, _) ->
      List.for_all
        (fun jobs ->
          let solved = ref [] in
          let comp_hooks =
            {
              Core.Dcsat.comp_clean = (fun ~index:_ _ -> None);
              comp_suspect = (fun ~index _ -> index mod 3 = 2);
              comp_solved = (fun ~index _ _ -> solved := index :: !solved);
            }
          in
          match opt_traced ~comp_hooks ~jobs session q with
          | None -> false
          | Some (o, _) ->
              o.Core.Dcsat.verdict = base.Core.Dcsat.verdict
              && o.Core.Dcsat.witness_world = base.Core.Dcsat.witness_world
              && o.Core.Dcsat.witness = base.Core.Dcsat.witness
              && List.rev !solved
                 = List.init
                     base.Core.Dcsat.stats.Core.Dcsat.components_total
                     Fun.id)
        [ 1; 4 ]

(* Dense 8 pairs (8 components, 16 worlds under Opt) plus random
   instances under every query ([opt_traced] skips disconnected ones). *)
let opt_cases name holds =
  Alcotest.test_case name `Quick (fun () ->
      let dense =
        ( Core.Session.create (Workload.Dense.db ~pairs:8),
          Workload.Dense.query () )
      in
      let random seed =
        let db = random_db (Random.State.make [| seed |]) in
        let session = Core.Session.create db in
        List.map (fun q -> (session, Q.Parser.parse_exn ~catalog:cat q)) queries
      in
      List.iter
        (fun (session, q) -> Alcotest.(check bool) name true (holds session q))
        (dense :: List.concat_map random (List.init 30 Fun.id)))

let () =
  Alcotest.run "engine"
    [
      ( "budget",
        [
          Alcotest.test_case "create/unlimited" `Quick test_budget_create;
          Alcotest.test_case "sticky trip" `Quick test_budget_trips_sticky;
          Alcotest.test_case "deadline interrupt" `Quick
            test_budget_deadline_interrupt;
        ] );
      ( "generator",
        [ Alcotest.test_case "interrupt hook" `Quick test_generator_interrupt ]
      );
      ( "verdicts",
        jobs_cases "unknown on max-worlds" test_unknown_on_max_worlds
        @ jobs_cases "unknown on expired deadline" test_unknown_on_deadline
        @ jobs_cases "generous budget matches unbudgeted"
            test_generous_budget_matches_unbudgeted
        @ jobs_cases "violation beats exhaustion"
            test_violation_beats_exhaustion );
      ( "exceptions",
        jobs_cases "eval raise propagates" test_eval_raise_propagates
        @ jobs_cases "replicate raise propagates"
            test_replicate_raise_propagates );
      ( "solver",
        [
          QCheck_alcotest.to_alcotest pool_matches_sequential;
          Alcotest.test_case "budget trips to Unknown" `Quick
            budget_trips_to_unknown;
          opt_cases "opt: max-worlds k = unbudgeted run cut at world k"
            budget_prefix_holds;
          opt_cases "opt: all-dirty hooks = no hooks (jobs 1 and 4)"
            all_dirty_matches_no_hooks;
        ] );
    ]
