(* Observability layer: unit tests for the recorder and sinks, the
   Chrome trace_event emission/validation round-trip on a real OptDCSat
   run, and the cross-backend regression — sequential and parallel runs
   must report identical solver stats and identical merged values for
   the deterministic obs counters, with per-domain span buffers that
   never interleave. *)

module R = Relational
module V = R.Value
module Q = Bcquery
module Core = Bccore
module Obs = Bcobs.Obs

(* The parallel worker count: CI runs the suite once with
   BCDB_TEST_JOBS=1 and once with BCDB_TEST_JOBS=4, so the same
   assertions are exercised against both backends. *)
let par_jobs =
  match Sys.getenv_opt "BCDB_TEST_JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* --- fixture: a small instance that defeats the pre-check and drives
   every OptDCSat phase (components, covers, cliques, worlds) --- *)

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

let fixture_db () =
  let state = R.Database.create cat in
  R.Database.insert_all state
    [ node_row 0 "red"; node_row 1 "red"; node_row 2 "red"; edge_row 0 1 ];
  Core.Bcdb.create_exn ~state ~constraints
    ~pending:
      [
        [ node_row 3 "green" ];
        [ node_row 3 "blue" ];  (* key-conflicts with the green tx *)
        [ edge_row 0 3 ];
        [ node_row 4 "green"; edge_row 4 4 ];
        [ node_row 5 "red" ];
      ]
    ()

(* Unsatisfied and not precheck-decidable-false: some possible world
   contains a green node, so every phase past the pre-check runs. *)
let q_green = {| q() :- Node(i, "green"). |}
let parse s = Q.Parser.parse_exn ~catalog:cat s

(* --- recorder unit tests --- *)

let test_counters () =
  let t = Obs.create () in
  Obs.add t "a" 2;
  Obs.add t "a" 3;
  Obs.add t "b" 1;
  Alcotest.(check int) "merged sum" 5 (Obs.counter t "a");
  Alcotest.(check int) "other counter" 1 (Obs.counter t "b");
  Alcotest.(check int) "absent counter" 0 (Obs.counter t "zzz");
  Alcotest.(check (list (pair string int)))
    "sorted merged counters"
    [ ("a", 5); ("b", 1) ]
    (Obs.counters t)

let test_null_is_inert () =
  Alcotest.(check bool) "null disabled" false (Obs.enabled Obs.null);
  Obs.add Obs.null "a" 1;
  Obs.observe Obs.null "h" 1.0;
  let r = Obs.span Obs.null "s" (fun () -> 42) in
  Alcotest.(check int) "span passes value through" 42 r;
  Alcotest.(check int) "no counter recorded" 0 (Obs.counter Obs.null "a");
  let s = Obs.summary Obs.null in
  Alcotest.(check int) "no spans" 0 (List.length s.Obs.spans)

let test_hist () =
  let t = Obs.create () in
  Obs.observe t "h" 1.0;
  Obs.observe t "h" 3.0;
  Obs.observe t "h" 2.0;
  match Obs.hist_of t "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 3 h.Obs.count;
      Alcotest.(check (float 1e-9)) "sum" 6.0 h.Obs.sum;
      Alcotest.(check (float 1e-9)) "min" 1.0 h.Obs.min;
      Alcotest.(check (float 1e-9)) "max" 3.0 h.Obs.max

let test_span_records_on_exception () =
  let t = Obs.create () in
  (try Obs.span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  let s = Obs.summary t in
  Alcotest.(check int) "span recorded despite raise" 1
    (List.length s.Obs.spans)

(* --- solver-driven tests --- *)

let solve_opt ~jobs session q =
  match Core.Dcsat.opt ~jobs session q with
  | Ok o -> o
  | Error r -> Alcotest.failf "opt refused: %a" Core.Dcsat.pp_refusal r

(* Every instrumented phase must contribute at least one span to the
   trace of an OptDCSat run, and the emitted file must validate against
   the Chrome trace_event schema. *)
let test_trace_phases () =
  let path = Filename.temp_file "bcdb_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let obs = Obs.create ~sinks:[ Obs.trace_sink path ] () in
  let session = Core.Session.create ~obs (fixture_db ()) in
  let outcome = solve_opt ~jobs:2 session (parse q_green) in
  Alcotest.(check bool) "fixture is unsatisfied" false
    outcome.Core.Dcsat.satisfied;
  Obs.flush obs;
  (match Obs.validate_trace_file path with
  | Ok events ->
      Alcotest.(check bool) "trace has events" true (events > 0)
  | Error errs -> Alcotest.failf "invalid trace: %s" (String.concat "; " errs));
  let spans = (Obs.summary obs).Obs.spans in
  let phases =
    [
      "precheck"; "ind_graph"; "covers"; "bk_yield"; "get_maximal"; "eval";
      (* engine *)
      "worker"; "claim"; "join";
      (* session lazies forced during the run *)
      "fd_graph"; "ind_base_edges";
    ]
  in
  List.iter
    (fun phase ->
      let n =
        List.length
          (List.filter (fun (sp : Obs.span) -> sp.Obs.name = phase) spans)
      in
      if n = 0 then Alcotest.failf "no %S span in the trace" phase)
    phases

(* Same-domain spans come from nested scoped timers on one call stack:
   any two must be disjoint in time or one must contain the other. An
   interleaved pair would mean two domains wrote into one buffer. *)
let test_span_buffers_well_formed () =
  let obs = Obs.create () in
  let session = Core.Session.create ~obs (fixture_db ()) in
  ignore (solve_opt ~jobs:par_jobs session (parse q_green));
  let spans = (Obs.summary obs).Obs.spans in
  Alcotest.(check bool) "run produced spans" true (spans <> []);
  let by_dom = Hashtbl.create 4 in
  List.iter
    (fun (sp : Obs.span) ->
      Hashtbl.replace by_dom sp.Obs.dom
        (sp :: Option.value (Hashtbl.find_opt by_dom sp.Obs.dom) ~default:[]))
    spans;
  Hashtbl.iter
    (fun dom dom_spans ->
      let arr = Array.of_list dom_spans in
      let ends (sp : Obs.span) = Int64.add sp.Obs.start_ns sp.Obs.dur_ns in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              if i < j then
                let disjoint =
                  ends a <= b.Obs.start_ns || ends b <= a.Obs.start_ns
                in
                let a_in_b =
                  b.Obs.start_ns <= a.Obs.start_ns && ends a <= ends b
                in
                let b_in_a =
                  a.Obs.start_ns <= b.Obs.start_ns && ends b <= ends a
                in
                if not (disjoint || a_in_b || b_in_a) then
                  Alcotest.failf
                    "domain %d: spans %s and %s interleave (corrupt buffer?)"
                    dom a.Obs.name b.Obs.name)
            arr)
        arr)
    by_dom

(* Sequential vs parallel: identical solver stats (runtime aside) and
   identical merged values for the counters the engine clamps
   deterministically. Span counts and cache hit/miss are legitimately
   backend-dependent and are not compared. *)
let deterministic_counters =
  [ "dcsat.worlds"; "dcsat.cliques"; "dcsat.components" ]

let counters_of ~jobs ~precheck session q =
  let obs = Obs.create () in
  let saved = Core.Session.obs session in
  Core.Session.set_obs session obs;
  Fun.protect ~finally:(fun () -> Core.Session.set_obs session saved)
  @@ fun () ->
  match
    Core.Dcsat.opt ~jobs ~config:{ Core.Dcsat.default with precheck } session q
  with
  | Error r -> Alcotest.failf "opt refused: %a" Core.Dcsat.pp_refusal r
  | Ok o ->
      ( { o.Core.Dcsat.stats with Core.Dcsat.runtime = 0.0 },
        List.map (fun name -> (name, Obs.counter obs name)) deterministic_counters
      )

let test_backend_counters_agree () =
  let session = Core.Session.create (fixture_db ()) in
  List.iter
    (fun (qs, precheck) ->
      let q = parse qs in
      let seq = counters_of ~jobs:1 ~precheck session q in
      let par = counters_of ~jobs:par_jobs ~precheck session q in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "obs counters %s (precheck %b)" qs precheck)
        (snd seq) (snd par);
      if fst seq <> fst par then
        Alcotest.failf "solver stats diverge on %s (precheck %b)" qs precheck)
    [
      (q_green, true);
      (q_green, false);
      ({| q() :- Edge(s, d), Node(d, "blue"). |}, false);
      ({| q() :- Node(i, c), Node(j, c), i != j. |}, true);
    ]

let random_dbs_counters_agree =
  QCheck.Test.make
    ~name:"merged deterministic counters agree across backends (random dbs)"
    ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let state = R.Database.create cat in
      R.Database.insert_all state
        [ node_row 0 "red"; node_row 1 "red"; edge_row 0 1 ];
      let colours = [| "red"; "green"; "blue" |] in
      let k = 2 + Random.State.int rng 5 in
      let random_tx () =
        List.init
          (1 + Random.State.int rng 2)
          (fun _ ->
            if Random.State.bool rng then
              node_row
                (2 + Random.State.int rng 5)
                colours.(Random.State.int rng 3)
            else edge_row (Random.State.int rng 7) (Random.State.int rng 7))
      in
      let db =
        Core.Bcdb.create_exn ~state ~constraints
          ~pending:(List.init k (fun _ -> random_tx ()))
          ()
      in
      let session = Core.Session.create db in
      let q = parse {| q() :- Edge(s, d), Node(d, "green"). |} in
      let seq = counters_of ~jobs:1 ~precheck:false session q in
      let par = counters_of ~jobs:par_jobs ~precheck:false session q in
      seq = par)

(* Instrumentation must not change answers: the same solve under a null
   and an enabled recorder returns identical outcomes. *)
let test_tracing_preserves_outcome () =
  let db = fixture_db () in
  let quiet = Core.Session.create db in
  let traced = Core.Session.create ~obs:(Obs.create ()) db in
  List.iter
    (fun qs ->
      let q = parse qs in
      let a = solve_opt ~jobs:2 quiet q in
      let b = solve_opt ~jobs:2 traced q in
      Alcotest.(check bool)
        (Printf.sprintf "verdict %s" qs)
        a.Core.Dcsat.satisfied b.Core.Dcsat.satisfied;
      if a.Core.Dcsat.witness_world <> b.Core.Dcsat.witness_world then
        Alcotest.failf "witness diverges under tracing on %s" qs)
    [ q_green; {| q() :- Edge(s, d), Node(d, "blue"). |} ]

(* --- sink round-trips --- *)

let test_metrics_jsonl () =
  let path = Filename.temp_file "bcdb_metrics" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let obs = Obs.create ~sinks:[ Obs.metrics_sink path ] () in
  let session = Core.Session.create ~obs (fixture_db ()) in
  ignore (solve_opt ~jobs:2 session (parse q_green));
  Obs.flush obs;
  let ic = open_in path in
  let lines = In_channel.input_lines ic in
  close_in ic;
  Alcotest.(check bool) "metrics non-empty" true (lines <> []);
  List.iter
    (fun line ->
      match Bcobs.Json.parse line with
      | Error msg -> Alcotest.failf "bad JSONL line %S: %s" line msg
      | Ok json -> (
          match Bcobs.Json.member "type" json with
          | Some (Bcobs.Json.Str ("counter" | "hist" | "span")) -> ()
          | _ -> Alcotest.failf "line lacks a known type: %S" line))
    lines;
  let has ty name =
    List.exists
      (fun l ->
        match Bcobs.Json.parse l with
        | Ok json ->
            Bcobs.Json.member "type" json = Some (Bcobs.Json.Str ty)
            && Bcobs.Json.member "name" json = Some (Bcobs.Json.Str name)
        | Error _ -> false)
      lines
  in
  Alcotest.(check bool) "worlds counter present" true
    (has "counter" "dcsat.worlds");
  Alcotest.(check bool) "busy histogram present" true
    (has "hist" "engine.busy_s")

let test_trace_validator_rejects_garbage () =
  let path = Filename.temp_file "bcdb_badtrace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  output_string oc {| {"traceEvents": [{"ph": "X", "ts": 1}]} |};
  close_out oc;
  match Obs.validate_trace_file path with
  | Ok _ -> Alcotest.fail "validator accepted an event without name/dur"
  | Error _ -> ()

(* The store's probe counters fire through prepared probes, over a
   generated Bitcoin-shaped economy. A traced cold precheck that
   decides its query (the plan evaluated once over R ∪ T) probes a base
   dictionary for a value it lacks; a traced cold solve the precheck
   cannot decide records dictionary hits and misses. *)
let test_probe_counters_fire () =
  let module W = Workload in
  let sim = W.Generator.generate (W.Datasets.params W.Datasets.Small) in
  let db = W.Generator.dataset sim ~contradictions:5 () in
  let query = W.Queries.instantiate sim (W.Queries.Qr 3) in
  let traced () =
    let obs = Obs.create () in
    (obs, Core.Session.create ~obs db)
  in
  let obs, session = traced () in
  let precheck_ev =
    Core.Inc_eval.evaluator (Core.Session.plan session (query W.Queries.Satisfied))
  in
  let decided =
    not
      (Core.Inc_eval.eval_source precheck_ev
         (Core.Tagged_store.union_source (Core.Session.store session)))
  in
  Obs.flush obs;
  Alcotest.(check bool) "the precheck decides the satisfied query" true decided;
  Alcotest.(check bool) "precheck: a dictionary miss" true
    (Obs.counter obs "segment.dict_miss" > 0);
  let obs, session = traced () in
  (match Core.Dcsat.opt session (query W.Queries.Unsatisfied) with
  | Ok o ->
      Alcotest.(check bool) "violated" false o.Core.Dcsat.satisfied;
      Alcotest.(check bool) "past the precheck" false
        o.Core.Dcsat.stats.Core.Dcsat.precheck_decided
  | Error r -> Alcotest.failf "opt refused: %a" Core.Dcsat.pp_refusal r);
  Obs.flush obs;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " recorded") true (Obs.counter obs name > 0))
    [ "segment.dict_hits"; "segment.dict_miss" ]

let () =
  Alcotest.run "obs"
    [
      ( "recorder",
        [
          Alcotest.test_case "counters merge" `Quick test_counters;
          Alcotest.test_case "null recorder is inert" `Quick test_null_is_inert;
          Alcotest.test_case "histograms" `Quick test_hist;
          Alcotest.test_case "span survives exceptions" `Quick
            test_span_records_on_exception;
        ] );
      ( "trace",
        [
          Alcotest.test_case "all phases span the trace" `Quick
            test_trace_phases;
          Alcotest.test_case "metrics JSONL parses" `Quick test_metrics_jsonl;
          Alcotest.test_case "validator rejects garbage" `Quick
            test_trace_validator_rejects_garbage;
        ] );
      ( "backends",
        [
          Alcotest.test_case "span buffers never interleave" `Quick
            test_span_buffers_well_formed;
          Alcotest.test_case "deterministic counters agree" `Quick
            test_backend_counters_agree;
          QCheck_alcotest.to_alcotest random_dbs_counters_agree;
          Alcotest.test_case "tracing preserves outcomes" `Quick
            test_tracing_preserves_outcome;
        ] );
      ( "store",
        [
          Alcotest.test_case "probe counters fire" `Quick
            test_probe_counters_fire;
        ] );
    ]
