(* The engine's group loop: cooperative budgets (deadline / max-worlds)
   surfacing as three-valued verdicts, the clique generator's interrupt
   hook, the lowest-index winner and its work count, and exception
   safety at every job count — a raising eval or replicate must
   propagate to the caller, release every borrowed replica, and leave
   the helper-domain pool reusable — plus solver-level differentials:
   the jobs=4 pool against jobs=1, NaiveDCSat's and OptDCSat's budget
   prefixes, and OptDCSat's verdict-cache hooks against the hook-free
   run. *)

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
  Alcotest.check_raises "infinite timeout"
    (Invalid_argument "Engine.Budget.create: infinite timeout") (fun () ->
      ignore (Engine.Budget.create ~timeout_s:Float.infinity ()));
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

(* --- the group loop --- *)

exception Boom

(* Groups given as lists of candidate worlds; [violates] and [fail_on]
   pick the worlds that violate and the one whose evaluation raises. *)
let run_lists ?budget ?on_world ~jobs ~store ~replicate ?release
    ?(violates = fun _ -> false) ?(fail_on = []) groups =
  Engine.run ?budget ?on_world ~jobs ~store ~replicate ?release
    ~groups:(Engine.Work_source.of_list groups)
    ~worlds:(fun ?interrupt:_ _store g -> Engine.Work_source.of_list g)
    ~eval:(fun () _store members ->
      if members = fail_on then raise Boom
      else
        {
          Engine.world = members;
          violation =
            (if violates members then
               Some { Engine.world = members; witness = None }
             else None);
        })
    ()

let paper_store () = Core.Tagged_store.create (Fixtures.paper_db ())

(* Groups 1 and 3 violate (at worlds [11] and [30]); group 1 wins at
   every job count, and work is counted over groups 0 and 1 only: all
   three worlds of group 0 and group 1 up to its violation. *)
let test_lowest_index_winner jobs () =
  let store = paper_store () in
  let groups =
    [
      [ [ 0 ]; [ 1 ]; [ 2 ] ];
      [ [ 10 ]; [ 11 ]; [ 12 ] ];
      [ [ 20 ]; [ 21 ] ];
      [ [ 30 ] ];
    ]
  in
  let seen = ref [] in
  let report =
    run_lists ~jobs ~store
      ~replicate:(fun () -> Core.Tagged_store.clone store)
      ~on_world:(fun c _ -> seen := c :: !seen)
      ~violates:(fun w -> w = [ 11 ] || w = [ 30 ])
      groups
  in
  Alcotest.(check (option (list int)))
    "lowest-index violation" (Some [ 11 ])
    (Option.map (fun (v : Engine.violation) -> v.Engine.world) report.Engine.hit);
  Alcotest.(check int) "worlds up to the winner" 5 report.Engine.evaluated;
  Alcotest.(check bool) "groups up to the winner" true
    (List.map fst report.Engine.groups = [ List.nth groups 0; List.nth groups 1 ]);
  Alcotest.(check bool) "their verdicts" true
    (match List.map snd report.Engine.groups with
    | [ Engine.Satisfied; Engine.Violated { Engine.world = [ 11 ]; _ } ] -> true
    | _ -> false);
  if jobs = 1 then
    Alcotest.(check (list (list int)))
      "on_world follows the enumeration"
      [ [ 0 ]; [ 1 ]; [ 2 ]; [ 10 ]; [ 11 ] ]
      (List.rev !seen)

(* A max-worlds budget of 4 over groups of 3 satisfied worlds: at
   jobs=1 the run stops right after its 4th world, in the second group,
   which ends Unknown. More workers may overshoot by one world each. *)
let test_budget_trip jobs () =
  let store = paper_store () in
  let groups = List.init 4 (fun g -> List.init 3 (fun w -> [ (10 * g) + w ])) in
  let budget = Engine.Budget.create ~max_worlds:4 () in
  let report =
    run_lists ~budget ~jobs ~store
      ~replicate:(fun () -> Core.Tagged_store.clone store)
      groups
  in
  Alcotest.(check bool) "exhausted" true
    (report.Engine.exhausted = Some Engine.Budget.Max_worlds);
  Alcotest.(check bool) "no hit" true (report.Engine.hit = None);
  Alcotest.(check bool) "some group cut" true
    (List.exists
       (fun (_, v) -> v = Engine.Unknown Engine.Budget.Max_worlds)
       report.Engine.groups);
  if jobs = 1 then begin
    Alcotest.(check int) "cut right after world 4" 4 report.Engine.evaluated;
    Alcotest.(check bool) "group 0 done, group 1 cut" true
      (List.map snd report.Engine.groups
      = [ Engine.Satisfied; Engine.Unknown Engine.Budget.Max_worlds ])
  end
  else
    Alcotest.(check bool) "overshoot below jobs" true
      (report.Engine.evaluated >= 4 && report.Engine.evaluated < 4 + jobs)

let test_eval_raise_propagates jobs () =
  let store = paper_store () in
  let borrowed = ref 0 and released = ref 0 in
  let replicate () =
    incr borrowed;
    Core.Tagged_store.clone store
  in
  let release _ = incr released in
  let groups = [ [ [ 0 ]; [ 1 ] ]; [ [ 2 ]; [ 3 ] ]; [ [ 4 ] ] ] in
  (match run_lists ~jobs ~store ~replicate ~release ~fail_on:[ 2 ] groups with
  | (_ : _ Engine.report) -> Alcotest.fail "expected the eval's exception"
  | exception Boom -> ());
  Alcotest.(check int) "every borrowed replica released" !borrowed !released;
  (* The engine (and its helper-domain pool) must stay usable: a clean
     run right after the failed one completes with full counts. *)
  let report = run_lists ~jobs ~store ~replicate ~release groups in
  Alcotest.(check int) "clean rerun evaluates everything" 5
    report.Engine.evaluated;
  Alcotest.(check int) "and reports every group" 3
    (List.length report.Engine.groups);
  Alcotest.(check bool) "no violation" true (report.Engine.hit = None);
  Alcotest.(check bool) "no exhaustion" true (report.Engine.exhausted = None);
  Alcotest.(check int) "rerun replicas also released" !borrowed !released

let test_replicate_raise_propagates jobs () =
  (* Failures in replicate (not just eval) must unwind the same way. *)
  let store = paper_store () in
  let released = ref 0 in
  let replicate () = raise Boom in
  let release _ = incr released in
  let groups = [ [ [ 0 ] ]; [ [ 1 ] ] ] in
  if jobs <= 1 then begin
    (* A single worker evaluates on the primary store and never
       replicates, so a poisoned replicate is simply unused. *)
    let report = run_lists ~jobs ~store ~replicate ~release groups in
    Alcotest.(check int) "single-worker run unaffected" 2
      report.Engine.evaluated
  end
  else begin
    (match run_lists ~jobs ~store ~replicate ~release groups with
    | (_ : _ Engine.report) -> Alcotest.fail "expected replicate's exception"
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

(* no precheck: force the enumeration on every instance *)
let jobs_agree session q =
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
  naive_ok && opt_ok

let pool_matches_sequential =
  QCheck.Test.make
    ~name:"naive/opt: jobs=4 pool = jobs=1 (verdict/witness/stats)"
    ~count:60
    QCheck.(pair (int_bound 100_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let session = Core.Session.create db in
      jobs_agree session
        (Q.Parser.parse_exn ~catalog:cat (List.nth queries qi)))

(* The grouped instance: three covered components that the jobs=4 pool
   solves on different workers. *)
let pool_matches_sequential_grouped () =
  let session =
    Core.Session.create (Workload.Dense.grouped ~groups:3 ~pairs:3)
  in
  Alcotest.(check bool) "jobs=4 = jobs=1" true
    (jobs_agree session (Workload.Dense.grouped_query ()))

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

(* --- budget prefixes and the verdict-cache hooks --- *)

let traced ?budget ?comp_hooks ~algo ~jobs session q =
  let events = ref [] in
  let on_event e = events := e :: !events in
  let config = Fixtures.no_precheck in
  match
    match algo with
    | `Naive -> Core.Dcsat.naive ~config ~jobs ?budget ~on_event session q
    | `Opt ->
        Core.Dcsat.opt ~config ~jobs ?budget ?comp_hooks ~on_event session q
  with
  | Ok o -> Some (o, List.rev !events)
  | Error _ -> None

(* The events up to and including the [k]-th World_evaluated; for
   [k = 0], only Components_found (nothing is claimed). *)
let rec cut_after_worlds k = function
  | [] -> []
  | (Core.Dcsat.World_evaluated _ as e) :: tl ->
      if k = 1 then [ e ] else e :: cut_after_worlds (k - 1) tl
  | (Core.Dcsat.Components_found _ as e) :: tl -> e :: cut_after_worlds k tl
  | _ :: _ when k = 0 -> []
  | e :: tl -> e :: cut_after_worlds k tl

(* A max-worlds budget of [k] cuts the jobs=1 run right after its [k]-th
   world: same events up to there, same counts, and [Unknown Max_worlds]
   exactly when the cut prefix holds no violation and the enumeration
   did not finish first. *)
let budget_prefix_holds ~algo session q =
  match traced ~algo ~jobs:1 session q with
  | None -> true
  | Some (full, events) ->
      let total = full.Core.Dcsat.stats.Core.Dcsat.worlds_checked in
      List.for_all
        (fun k ->
          let budget = Engine.Budget.create ~max_worlds:k () in
          match traced ~algo ~budget ~jobs:1 session q with
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

(* Hooks that never report a component clean solve every component in
   the hook-free schedule: the answer and stats equal the hook-free
   run's, and [comp_solved] fires exactly for the components that run
   reached — those up to the winner, all of them when satisfied — in
   ascending index order. *)
let all_dirty_matches_no_hooks session q =
  match traced ~algo:`Opt ~jobs:1 session q with
  | None -> true
  | Some (base, events) ->
      let reached =
        List.length
          (List.filter
             (function
               | Core.Dcsat.Component_entered _ | Core.Dcsat.Component_skipped _
                 ->
                   true
               | _ -> false)
             events)
      in
      List.for_all
        (fun jobs ->
          let solved = ref [] in
          let comp_hooks =
            {
              Core.Dcsat.comp_clean = (fun ~index:_ _ -> None);
              comp_solved = (fun ~index _ _ -> solved := index :: !solved);
            }
          in
          match traced ~algo:`Opt ~comp_hooks ~jobs session q with
          | None -> false
          | Some (o, _) ->
              same_outcome base o && List.rev !solved = List.init reached Fun.id)
        [ 1; 4 ]

(* A cached violation at component [j] closes the claims: it wins
   unless a lower-index component violates, and [comp_solved] reports
   only the components below the winner (and the winner when it was
   solved). A fake world ([-1]) marks the cached verdict. *)
let cached_violation_wins_unless_lower session q =
  match traced ~algo:`Opt ~jobs:1 session q with
  | None -> true
  | Some (base, events) ->
      let reached =
        List.length
          (List.filter
             (function
               | Core.Dcsat.Component_entered _ | Core.Dcsat.Component_skipped _
                 ->
                   true
               | _ -> false)
             events)
      in
      let n = base.Core.Dcsat.stats.Core.Dcsat.components_total in
      let fake = Core.Dcsat.Violated { world = [ -1 ]; witness = None } in
      List.for_all
        (fun (j, jobs) ->
          let solved = ref [] in
          let comp_hooks =
            {
              Core.Dcsat.comp_clean =
                (fun ~index _ ->
                  if index = j then
                    Some (Core.Dcsat.Comp_violated { world = [ -1 ]; witness = None })
                  else None);
              comp_solved = (fun ~index _ _ -> solved := index :: !solved);
            }
          in
          let lower_wins =
            (match base.Core.Dcsat.verdict with
            | Core.Dcsat.Violated _ -> true
            | _ -> false)
            && reached - 1 < j
          in
          match traced ~algo:`Opt ~comp_hooks ~jobs session q with
          | None -> false
          | Some (o, _) ->
              if lower_wins then
                o.Core.Dcsat.verdict = base.Core.Dcsat.verdict
                && List.rev !solved = List.init reached Fun.id
              else
                o.Core.Dcsat.verdict = fake
                && List.rev !solved = List.init j Fun.id)
        (List.concat_map (fun j -> [ (j, 1); (j, 4) ]) (List.init n Fun.id))

(* Dense 8 pairs (8 components, 16 worlds under Opt), the grouped
   instance (3 components of 8 worlds) and random instances under every
   query ([traced] skips disconnected ones for Opt). *)
let opt_cases name holds =
  Alcotest.test_case name `Quick (fun () ->
      let dense =
        ( Core.Session.create (Workload.Dense.db ~pairs:8),
          Workload.Dense.query () )
      in
      let grouped =
        ( Core.Session.create (Workload.Dense.grouped ~groups:3 ~pairs:3),
          Workload.Dense.grouped_query () )
      in
      let random seed =
        let db = random_db (Random.State.make [| seed |]) in
        let session = Core.Session.create db in
        List.map (fun q -> (session, Q.Parser.parse_exn ~catalog:cat q)) queries
      in
      List.iter
        (fun (session, q) -> Alcotest.(check bool) name true (holds session q))
        (dense :: grouped :: List.concat_map random (List.init 30 Fun.id)))

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
            (budget_prefix_holds ~algo:`Opt);
          opt_cases "opt: all-dirty hooks = no hooks (jobs 1 and 4)"
            all_dirty_matches_no_hooks;
          Alcotest.test_case "naive/opt: jobs=4 pool = jobs=1 on Dense.grouped"
            `Quick pool_matches_sequential_grouped;
          opt_cases "naive: max-worlds k = unbudgeted run cut at world k"
            (budget_prefix_holds ~algo:`Naive);
          opt_cases "opt: a cached violation wins unless a lower one does"
            cached_violation_wins_unless_lower;
        ] );
      ( "groups",
        jobs_cases "lowest-index winner" test_lowest_index_winner
        @ jobs_cases "budget trip" test_budget_trip );
    ]
