(* Scenario differential harness: every named scenario instance must
   produce its scripted verdict under every solver (auto dispatch,
   NaiveDCSat, OptDCSat, brute force), at jobs 1 and 4, with the delta
   evaluation layer on and off. The qcheck generator is
   fuzzed at fixed, replayable seeds against a solver-vs-brute-force
   oracle, and the shrinker is shown to minimize an injected failing
   trace to a single zeroed payment step.

   CI runs this file once per BCDB_TEST_JOBS matrix cell; the explicit
   jobs list below keeps both parallelism levels covered even in a
   single run. *)

module S = Scenario
module G = Scenario.Trace_gen

let jobs_env =
  match Sys.getenv_opt "BCDB_TEST_JOBS" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 1)
  | None -> 1

let jobs_list = if List.mem jobs_env [ 1; 4 ] then [ 1; 4 ] else [ 1; 4; jobs_env ]

(* Both delta settings, pre-check on. *)
let configs =
  List.map
    (fun delta -> { Bccore.Dcsat.default with delta })
    [ false; true ]

let engines = [ S.Auto; S.Naive; S.Opt; S.Brute ]

let test_differential () =
  List.iter
    (fun (inst : S.t) ->
      match S.compile inst with
      | Error msg -> Alcotest.failf "%s: compile: %s" inst.S.name msg
      | Ok compiled ->
          List.iter
            (fun engine ->
              List.iter
                (fun (config : Bccore.Dcsat.config) ->
                  List.iter
                    (fun jobs ->
                      match
                        S.solve_compiled ~engine ~jobs ~config inst compiled
                      with
                      | Error msg -> (
                          (* A specialized solver may refuse a query
                             outside its fragment (OptDCSat and
                             aggregates, say); a refusal from the auto
                             dispatcher or brute force is a bug. *)
                          match engine with
                          | S.Naive | S.Opt -> ()
                          | S.Auto | S.Brute ->
                              Alcotest.failf "%s [%s]: %s" inst.S.name
                                (S.engine_name engine) msg)
                      | Ok solved -> (
                          match solved.S.check with
                          | Ok () -> ()
                          | Error msg ->
                              Alcotest.failf
                                "%s [%s jobs=%d delta=%b]: %s"
                                inst.S.name (S.engine_name engine) jobs
                                config.delta msg))
                    jobs_list)
                configs)
            engines)
    (Scenarios.Catalog.instances ())

let test_catalog_shape () =
  Alcotest.(check int) "five families" 5 (List.length Scenarios.Catalog.all);
  List.iter
    (fun (f : S.family) ->
      Alcotest.(check bool)
        (f.S.base.S.name ^ " has at least two variants")
        true
        (List.length f.S.variants >= 2))
    Scenarios.Catalog.all;
  let names = Scenarios.Catalog.names () in
  Alcotest.(check int)
    "instance names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names))

(* Replayable fuzz seeds: each seed drives a full generate/run/solve
   round against the brute-force oracle. A regression found by any
   future run is reproduced by adding its seed here. *)
let regression_seeds = [ 42; 4242; 99731 ]

let fuzz_cases_per_seed = 12

let fuzz_cell ~jobs =
  QCheck.Test.make_cell ~count:fuzz_cases_per_seed ~name:"trace differential"
    G.arbitrary (fun script ->
      match G.differential ~jobs script with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let test_fuzz_differential () =
  List.iter
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      match
        QCheck.TestResult.get_state
          (QCheck.Test.check_cell ~rand (fuzz_cell ~jobs:jobs_env))
      with
      | QCheck.TestResult.Success -> ()
      | QCheck.TestResult.Failed { instances = c :: _ } ->
          Alcotest.failf "seed %d: differential failure on minimized trace:\n%s"
            seed (G.print c.QCheck.TestResult.instance)
      | QCheck.TestResult.Failed { instances = [] } ->
          Alcotest.failf "seed %d: differential failure (no instance)" seed
      | QCheck.TestResult.Failed_other { msg } ->
          Alcotest.failf "seed %d: %s" seed msg
      | QCheck.TestResult.Error { exn; _ } ->
          Alcotest.failf "seed %d: raised %s" seed (Printexc.to_string exn))
    regression_seeds

(* Inject a failure ("no trace ever pays anyone") and check the shrinker
   drives the counterexample down to the canonical minimum: exactly one
   choice, a payment with both shrinkable fields at zero. *)
let test_shrinker_minimizes () =
  let cell =
    QCheck.Test.make_cell ~count:50 ~name:"injected failure" G.arbitrary
      (fun script ->
        not (List.exists (function G.Pay _ -> true | _ -> false) script))
  in
  match
    QCheck.TestResult.get_state
      (QCheck.Test.check_cell ~rand:(Random.State.make [| 7 |]) cell)
  with
  | QCheck.TestResult.Failed { instances = c :: _ } -> (
      Alcotest.(check bool)
        "shrinking actually happened" true
        (c.QCheck.TestResult.shrink_steps > 0);
      match c.QCheck.TestResult.instance with
      | [ G.Pay { amount; fee; _ } ] ->
          Alcotest.(check int) "amount shrunk to zero" 0 amount;
          Alcotest.(check int) "fee shrunk to zero" 0 fee
      | other ->
          Alcotest.failf "not minimized to a single payment: %s"
            (G.print other))
  | _ -> Alcotest.fail "the injected failure did not fail"

(* A minimized script must survive reassembly and interpretation — the
   totality contract that makes shrinking sound. *)
let test_assemble_total () =
  let scripts =
    [
      [];
      [ G.Double { of_ = 3; to_ = 1; fee = 0 } ];
      [ G.Bump { of_ = 0; add_fee = 0 } ];
      [ G.Cancel { of_ = 9; fee = 0 } ];
      [ G.Join; G.Split; G.Join; G.Mine 5; G.Slot ];
      [
        G.Pay { from_ = 0; to_ = 0; amount = 0; fee = 0 };
        G.Split;
        G.Double { of_ = 0; to_ = 2; fee = 800 };
        G.Mine 1;
        G.Join;
      ];
    ]
  in
  List.iter
    (fun script ->
      match S.Interp.run (G.assemble script) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "script not total: %s\n%s" msg (G.print script))
    scripts

let () =
  Alcotest.run "scenario"
    [
      ( "catalog",
        [
          Alcotest.test_case "shape" `Quick test_catalog_shape;
          Alcotest.test_case "differential verdicts" `Quick test_differential;
        ] );
      ( "generator",
        [
          Alcotest.test_case "assemble is total" `Quick test_assemble_total;
          Alcotest.test_case "fuzz differential (fixed seeds)" `Quick
            test_fuzz_differential;
          Alcotest.test_case "shrinker minimizes injected failure" `Quick
            test_shrinker_minimizes;
        ] );
    ]
