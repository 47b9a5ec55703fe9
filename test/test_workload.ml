(* Workload generator and experiment queries: the generated economy must
   produce a valid blockchain database whose planted structures make the
   paper's four query families behave as designed. *)

module Core = Bccore
module W = Workload

let tiny_params =
  {
    W.Generator.users = 8;
    state_blocks = 4;
    pending_blocks = 4;
    txs_per_block = 6;
    max_contradictions = 8;
    seed = 7;
  }

let sim = lazy (W.Generator.generate tiny_params)

let test_generation_shape () =
  let sim = Lazy.force sim in
  Alcotest.(check int) "pending blocks" 4
    (List.length sim.W.Generator.pending_by_block);
  Alcotest.(check bool) "conflict pool non-empty" true
    (List.length sim.W.Generator.conflict_pool > 0);
  Alcotest.(check int) "planted chain length" 6
    (List.length sim.W.Generator.planted.W.Generator.chain);
  Alcotest.(check int) "star size" 5
    sim.W.Generator.planted.W.Generator.star_count;
  Alcotest.(check bool) "agg total positive" true
    (sim.W.Generator.planted.W.Generator.agg_total > 0)

let test_dataset_valid () =
  let sim = Lazy.force sim in
  (* Bcdb.create validates R |= I internally; pending sizes line up. *)
  let db = W.Generator.dataset sim ~contradictions:4 () in
  let expected =
    W.Generator.pending_count sim ~pending_take:4 ~contradictions:4
  in
  Alcotest.(check int) "pending count" expected (Core.Bcdb.pending_count db)

let test_contradictions_are_conflicts () =
  let sim = Lazy.force sim in
  let base = W.Generator.dataset sim ~contradictions:0 () in
  let with_c = W.Generator.dataset sim ~contradictions:3 () in
  let conflicts db =
    let store = Core.Tagged_store.create db in
    Core.Fd_graph.conflict_count
      (Core.Fd_graph.build store
         ~node_ok:(fst (Core.Tagged_store.validity store)))
  in
  Alcotest.(check int) "no injected conflicts" 0 (conflicts base);
  Alcotest.(check int) "three injected conflicts" 3 (conflicts with_c)

let solve algo session q =
  let result =
    match algo with
    | W.Experiment.Naive -> Core.Dcsat.naive session q
    | W.Experiment.Opt -> Core.Dcsat.opt session q
  in
  match result with
  | Ok o -> o
  | Error r -> Alcotest.failf "refused: %a" Core.Dcsat.pp_refusal r

let check_family family algo =
  let sim = Lazy.force sim in
  let db = W.Generator.dataset sim ~contradictions:2 () in
  let session = Core.Session.create db in
  let sat =
    solve algo session (W.Queries.instantiate sim family W.Queries.Satisfied)
  in
  let unsat =
    solve algo session (W.Queries.instantiate sim family W.Queries.Unsatisfied)
  in
  Alcotest.(check bool)
    (W.Queries.family_name family ^ " satisfied variant")
    true sat.Core.Dcsat.satisfied;
  Alcotest.(check bool)
    (W.Queries.family_name family ^ " unsatisfied variant")
    false unsat.Core.Dcsat.satisfied

let test_qs () =
  check_family W.Queries.Qs W.Experiment.Naive;
  check_family W.Queries.Qs W.Experiment.Opt

let test_qp () =
  List.iter
    (fun i ->
      check_family (W.Queries.Qp i) W.Experiment.Naive;
      check_family (W.Queries.Qp i) W.Experiment.Opt)
    [ 2; 3; 4; 5 ]

let test_qr () =
  List.iter
    (fun i ->
      check_family (W.Queries.Qr i) W.Experiment.Naive;
      check_family (W.Queries.Qr i) W.Experiment.Opt)
    [ 2; 3 ]

let test_qa () = check_family W.Queries.Qa W.Experiment.Naive

let test_qp_is_connected () =
  let sim = Lazy.force sim in
  List.iter
    (fun i ->
      let q = W.Queries.instantiate sim (W.Queries.Qp i) W.Queries.Unsatisfied in
      Alcotest.(check bool)
        (Printf.sprintf "qp%d connected" i)
        true
        (Bcquery.Gaifman.is_connected (Bcquery.Query.body q)))
    [ 2; 3; 4; 5 ];
  let qr = W.Queries.instantiate sim (W.Queries.Qr 3) W.Queries.Unsatisfied in
  Alcotest.(check bool) "qr3 connected (via the constant)" true
    (Bcquery.Gaifman.is_connected (Bcquery.Query.body qr))

let test_determinism () =
  let a = W.Generator.generate tiny_params in
  let b = W.Generator.generate tiny_params in
  let pk p = p.W.Generator.planted.W.Generator.star_spender in
  Alcotest.(check string) "same star pk" (pk a) (pk b);
  Alcotest.(check int) "same pending size"
    (W.Generator.pending_count a ~pending_take:4 ~contradictions:0)
    (W.Generator.pending_count b ~pending_take:4 ~contradictions:0)

let test_experiment_harness () =
  let sim = Lazy.force sim in
  let db = W.Generator.dataset sim ~contradictions:2 () in
  let session = W.Experiment.session_of db in
  let m =
    W.Experiment.run ~repeats:2 ~session ~label:"qs" ~algo:W.Experiment.Opt
      ~variant:W.Queries.Satisfied
      (W.Queries.instantiate sim W.Queries.Qs W.Queries.Satisfied)
  in
  Alcotest.(check bool) "measured satisfied" true m.W.Experiment.satisfied;
  Alcotest.(check bool) "time non-negative" true (m.W.Experiment.seconds >= 0.0)

let test_datasets_presets () =
  List.iter
    (fun preset ->
      let p = W.Datasets.params preset in
      Alcotest.(check bool)
        (W.Datasets.name preset ^ " has pending blocks")
        true
        (p.W.Generator.pending_blocks > 0))
    [ W.Datasets.Small; W.Datasets.Mid; W.Datasets.Large ];
  Alcotest.(check int) "sweep has 50 pending blocks" 50
    W.Datasets.sweep_params.W.Generator.pending_blocks

let () =
  Alcotest.run "workload"
    [
      ( "generator",
        [
          Alcotest.test_case "shape" `Quick test_generation_shape;
          Alcotest.test_case "dataset valid" `Quick test_dataset_valid;
          Alcotest.test_case "contradictions" `Quick test_contradictions_are_conflicts;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "queries",
        [
          Alcotest.test_case "qs" `Quick test_qs;
          Alcotest.test_case "qp sizes" `Slow test_qp;
          Alcotest.test_case "qr" `Slow test_qr;
          Alcotest.test_case "qa" `Quick test_qa;
          Alcotest.test_case "connectivity" `Quick test_qp_is_connected;
        ] );
      ( "harness",
        [
          Alcotest.test_case "measurement" `Quick test_experiment_harness;
          Alcotest.test_case "presets" `Quick test_datasets_presets;
        ] );
    ]
