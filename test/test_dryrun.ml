(* Dry runs: hypothetical transactions over a shared warm session must
   behave exactly like a fresh session over the extended database, and
   the rollback must leave no trace. *)

module R = Relational
module V = R.Value
module Q = Bcquery
module Core = Bccore

let out_row txid ser pk amount =
  ("TxOut", R.Tuple.make [ V.Str txid; V.Int ser; V.Str pk; V.Float amount ])

let in_row ptx pser pk amount ntx sg =
  ( "TxIn",
    R.Tuple.make
      [ V.Str ptx; V.Int pser; V.Str pk; V.Float amount; V.Str ntx; V.Str sg ] )

(* A hypothetical transaction for the paper database: spends T1's change
   output (4,2) - conflicting with T2, which spends the same output. *)
let hypothetical =
  [ in_row "4" 2 "U2Pk" 3.0 "9" "U2Sig"; out_row "9" 1 "U9Pk" 3.0 ]

let snapshot session =
  let store = Core.Session.store session in
  Core.Tagged_store.all_visible store;
  let src = Core.Tagged_store.source store in
  ( Core.Tagged_store.tx_count store,
    List.length (Fixtures.read_all src "TxOut"),
    List.length (Fixtures.read_all src "TxIn") )

let test_extended_matches_fresh () =
  let session = Fixtures.session_of (Fixtures.paper_db ()) in
  Core.Session.warm session;
  let q = Q.Parser.parse_exn ~catalog:Fixtures.catalog
      {| q() :- TxOut(t, s, "U9Pk", a). |}
  in
  (* Without the hypothetical transaction: satisfied. *)
  (match Core.Dcsat.opt session q with
  | Ok o -> Alcotest.(check bool) "satisfied before" true o.Core.Dcsat.satisfied
  | Error r -> Alcotest.failf "%a" Core.Dcsat.pp_refusal r);
  Core.Dry_run.with_transaction session ~label:"H" hypothetical
    (fun extended id ->
      Alcotest.(check int) "new id" 5 id;
      (* Incremental session vs a from-scratch session must agree. *)
      let fresh =
        Fixtures.session_of
          (Core.Bcdb.with_pending (Fixtures.paper_db ()) ~label:"H" hypothetical)
      in
      Core.Session.warm fresh;
      List.iter
        (fun text ->
          let q = Q.Parser.parse_exn ~catalog:Fixtures.catalog text in
          let a =
            match Core.Dcsat.opt extended q with
            | Ok o -> o.Core.Dcsat.satisfied
            | Error _ -> Alcotest.fail "refused"
          in
          let b =
            match Core.Dcsat.opt fresh q with
            | Ok o -> o.Core.Dcsat.satisfied
            | Error _ -> Alcotest.fail "refused"
          in
          Alcotest.(check bool) text b a)
        [
          {| q() :- TxOut(t, s, "U9Pk", a). |};
          {| q() :- TxOut(t, s, "U8Pk", a). |};
          {| q() :- TxIn("4", 2, pk, a, n1, g1), TxIn("4", 2, pk2, a2, n2, g2),
                    n1 != n2. |};
        ];
      (* The fd graphs agree on the new node. *)
      let fd_ext = Core.Session.fd_graph extended in
      let fd_fresh = Core.Session.fd_graph fresh in
      Alcotest.(check (list (pair int int)))
        "conflicts agree"
        fd_fresh.Core.Fd_graph.conflicts
        (List.sort compare fd_ext.Core.Fd_graph.conflicts);
      for i = 0 to 5 do
        for j = 0 to 5 do
          if i <> j then
            Alcotest.(check bool)
              (Printf.sprintf "edge %d-%d" i j)
              (Bcgraph.Undirected.connected fd_fresh.Core.Fd_graph.graph i j)
              (Bcgraph.Undirected.connected fd_ext.Core.Fd_graph.graph i j)
        done
      done)

let test_rollback () =
  let session = Fixtures.session_of (Fixtures.paper_db ()) in
  Core.Session.warm session;
  (* A multi-bind query forces composite indexes into existence before
     the dry run, so the journal must patch them on append and undo. *)
  let joined =
    Q.Parser.parse_exn ~catalog:Fixtures.catalog
      {| q() :- TxIn("4", 2, pk, a, n, g), TxOut(n, s, pk2, b). |}
  in
  let eval_joined () =
    let store = Core.Session.store session in
    Core.Tagged_store.all_visible store;
    Q.Eval.eval (Core.Tagged_store.source store) joined
  in
  Alcotest.(check bool) "joined true before" true (eval_joined ());
  let before = snapshot session in
  Core.Dry_run.with_transaction session hypothetical (fun extended _ ->
      let during = snapshot extended in
      Alcotest.(check bool) "store grew" true (during > before));
  Alcotest.(check (triple int int int)) "restored" before (snapshot session);
  Alcotest.(check bool) "joined true after rollback" true (eval_joined ());
  (* The original session still answers correctly after rollback. *)
  match Core.Dcsat.opt session Fixtures.qs_u8 with
  | Ok o -> Alcotest.(check bool) "still unsat" false o.Core.Dcsat.satisfied
  | Error r -> Alcotest.failf "%a" Core.Dcsat.pp_refusal r

let test_rollback_on_exception () =
  let session = Fixtures.session_of (Fixtures.paper_db ()) in
  let before = snapshot session in
  (try
     Core.Dry_run.with_transaction session hypothetical (fun _ _ ->
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (triple int int int)) "restored after raise" before
    (snapshot session)

let test_nested () =
  let session = Fixtures.session_of (Fixtures.paper_db ()) in
  let before = snapshot session in
  Core.Dry_run.with_transaction session hypothetical (fun s1 _ ->
      Core.Dry_run.with_transaction s1
        [ out_row "10" 1 "U10Pk" 1.0 ]
        (fun s2 id2 ->
          Alcotest.(check int) "inner id" 6 id2;
          let q =
            Q.Parser.parse_exn ~catalog:Fixtures.catalog
              {| q() :- TxOut(t, s, "U10Pk", a). |}
          in
          match Core.Dcsat.opt s2 q with
          | Ok o ->
              Alcotest.(check bool) "inner tx visible to solver" false
                o.Core.Dcsat.satisfied
          | Error r -> Alcotest.failf "%a" Core.Dcsat.pp_refusal r));
  Alcotest.(check (triple int int int)) "fully restored" before (snapshot session)

let test_safe_to_issue () =
  let session = Fixtures.session_of (Fixtures.paper_db ()) in
  (* "U9Pk never receives money" - issuing the hypothetical tx would
     break it. *)
  let q9 =
    Q.Parser.parse_exn ~catalog:Fixtures.catalog
      {| q() :- TxOut(t, s, "U9Pk", a). |}
  in
  let q_absent =
    Q.Parser.parse_exn ~catalog:Fixtures.catalog
      {| q() :- TxOut(t, s, "U99Pk", a). |}
  in
  (match Core.Dry_run.safe_to_issue session hypothetical [ q_absent ] with
  | Ok (safe, _) -> Alcotest.(check bool) "unrelated constraint: safe" true safe
  | Error msg -> Alcotest.fail msg);
  match Core.Dry_run.safe_to_issue session hypothetical [ q_absent; q9 ] with
  | Ok (safe, outcomes) ->
      Alcotest.(check bool) "violating constraint detected" false safe;
      Alcotest.(check int) "stopped at the violation" 2 (List.length outcomes)
  | Error msg -> Alcotest.fail msg

(* Property: for random hypothetical transactions, the incrementally
   extended fd graph and includability flags equal those of a session
   built from scratch. *)
let incremental_equals_rebuild =
  QCheck.Test.make ~name:"Session.extended = fresh rebuild" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      (* Random tx over the paper db: maybe spend a spendable output,
         maybe double-spend one that a pending tx spends, plus an
         output. *)
      let spend =
        pick
          [
            [];
            [ in_row "2" 2 "U2Pk" 4.0 "9" "U2Sig" ] (* conflicts T1, T5 *);
            [ in_row "3" 1 "U3Pk" 1.0 "9" "U3Sig" ];
            [ in_row "4" 1 "U5Pk" 1.0 "9" "U5Sig" ] (* depends on T1 *);
            [ in_row "3" 3 "U1Pk" 0.5 "9" "U1Sig" ] (* conflicts T3 *);
          ]
      in
      let rows =
        spend
        @ [ out_row "9" 1 (pick [ "U1Pk"; "U9Pk"; "U7Pk" ]) (float_of_int (1 + Random.State.int rng 4)) ]
      in
      let session = Fixtures.session_of (Fixtures.paper_db ()) in
      Core.Session.warm session;
      Core.Dry_run.with_transaction session rows (fun extended _ ->
          let fresh =
            Fixtures.session_of
              (Core.Bcdb.with_pending (Fixtures.paper_db ()) rows)
          in
          let fe = Core.Session.fd_graph extended in
          let ff = Core.Session.fd_graph fresh in
          let edges g =
            let n = Bcgraph.Undirected.node_count g in
            List.concat
              (List.init n (fun i ->
                   List.filter_map
                     (fun j ->
                       if j > i && Bcgraph.Undirected.connected g i j then
                         Some (i, j)
                       else None)
                     (List.init n Fun.id)))
          in
          edges fe.Core.Fd_graph.graph = edges ff.Core.Fd_graph.graph
          && fe.Core.Fd_graph.node_ok = ff.Core.Fd_graph.node_ok
          && Core.Session.includable extended = Core.Session.includable fresh
          && List.sort compare (Core.Session.ind_base_edges extended)
             = List.sort compare (Core.Session.ind_base_edges fresh)))

let () =
  Alcotest.run "dryrun"
    [
      ( "dry-run",
        [
          Alcotest.test_case "matches fresh session" `Quick
            test_extended_matches_fresh;
          Alcotest.test_case "rollback" `Quick test_rollback;
          Alcotest.test_case "rollback on exception" `Quick
            test_rollback_on_exception;
          Alcotest.test_case "nested" `Quick test_nested;
          Alcotest.test_case "safe_to_issue" `Quick test_safe_to_issue;
          QCheck_alcotest.to_alcotest incremental_equals_rebuild;
        ] );
    ]
