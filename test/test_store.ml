(* Tagged store: world switching, set semantics across origins, indexes
   under visibility, and agreement with materialized databases. *)

module R = Relational
module V = R.Value
module Core = Bccore
module Bitset = Bcgraph.Bitset

let abc = R.Schema.relation "Rel" [ "a"; "b" ]
let cat = R.Schema.of_list [ abc ]
let row a b = ("Rel", R.Tuple.make [ V.Int a; V.Int b ])

let mk state pending =
  let db = R.Database.create cat in
  R.Database.insert_all db state;
  Core.Bcdb.create_exn ~state:db ~constraints:[] ~pending ()

let test_visibility () =
  let db = mk [ row 1 1 ] [ [ row 2 2 ]; [ row 3 3 ] ] in
  let store = Core.Tagged_store.create db in
  let src = Core.Tagged_store.source store in
  let count () = List.length (List.of_seq (src.R.Source.scan "Rel")) in
  Core.Tagged_store.base_only store;
  Alcotest.(check int) "base only" 1 (count ());
  Core.Tagged_store.set_world_list store [ 0 ];
  Alcotest.(check int) "base + T0" 2 (count ());
  Alcotest.(check bool) "T1 row invisible" false
    (src.R.Source.mem "Rel" (R.Tuple.make [ V.Int 3; V.Int 3 ]));
  Core.Tagged_store.all_visible store;
  Alcotest.(check int) "all" 3 (count ())

let test_set_semantics_across_origins () =
  (* The same tuple contributed by the base state and two transactions
     must be stored once and never double-counted. *)
  let db = mk [ row 1 1 ] [ [ row 1 1; row 2 2 ]; [ row 1 1 ] ] in
  let store = Core.Tagged_store.create db in
  let src = Core.Tagged_store.source store in
  Core.Tagged_store.all_visible store;
  Alcotest.(check int) "distinct tuples" 2
    (List.length (List.of_seq (src.R.Source.scan "Rel")));
  Alcotest.(check (list int))
    "origins recorded" [ -1; 0; 1 ]
    (Core.Tagged_store.origins store "Rel" (R.Tuple.make [ V.Int 1; V.Int 1 ]));
  (* Visible through any one of its origins. *)
  Core.Tagged_store.set_world_list store [ 1 ];
  Alcotest.(check bool) "visible via T1" true
    (src.R.Source.mem "Rel" (R.Tuple.make [ V.Int 1; V.Int 1 ]));
  Alcotest.(check bool) "T0-only row invisible" false
    (src.R.Source.mem "Rel" (R.Tuple.make [ V.Int 2; V.Int 2 ]))

let test_lookup_respects_visibility () =
  let db = mk [ row 5 0 ] [ [ row 5 1 ]; [ row 5 2 ] ] in
  let store = Core.Tagged_store.create db in
  let src = Core.Tagged_store.source store in
  Core.Tagged_store.set_world_list store [ 1 ];
  let hits = List.of_seq (src.R.Source.lookup "Rel" [ (0, V.Int 5) ]) in
  Alcotest.(check int) "lookup filtered" 2 (List.length hits);
  Alcotest.(check bool) "right tuples" true
    (List.for_all
       (fun t ->
         let b = R.Tuple.get t 1 in
         V.equal b (V.Int 0) || V.equal b (V.Int 2))
       hits)

let test_to_database_matches () =
  let db = Fixtures.paper_db () in
  let store = Core.Tagged_store.create db in
  Core.Tagged_store.set_world_list store [ 0; 1 ];
  let materialized = Core.Tagged_store.to_database store in
  let src_store = Core.Tagged_store.source store in
  let src_db = R.Database.source materialized in
  List.iter
    (fun rel ->
      let of_seq s = List.sort R.Tuple.compare (List.of_seq s) in
      Alcotest.(check int)
        (rel ^ " cardinality agrees")
        (List.length (of_seq (src_db.R.Source.scan rel)))
        (List.length (of_seq (src_store.R.Source.scan rel)));
      Alcotest.(check bool)
        (rel ^ " contents agree")
        true
        (List.equal R.Tuple.equal
           (of_seq (src_db.R.Source.scan rel))
           (of_seq (src_store.R.Source.scan rel))))
    [ "TxOut"; "TxIn" ]

let test_clone_independence () =
  (* A clone must share no mutable state with its parent: world switches
     and index builds on one side never show through on the other. *)
  let db = mk [ row 1 1 ] [ [ row 2 2 ]; [ row 3 3 ] ] in
  let store = Core.Tagged_store.create db in
  Core.Tagged_store.set_world_list store [ 0 ];
  let replica = Core.Tagged_store.clone store in
  let count st =
    let src = Core.Tagged_store.source st in
    List.length (List.of_seq (src.R.Source.scan "Rel"))
  in
  Alcotest.(check int) "clone starts in parent's world" 2 (count replica);
  (* Move the clone; the parent must not budge — including via indexed
     lookups, which build per-store index tables on demand. *)
  Core.Tagged_store.set_world_list replica [ 0; 1 ];
  Alcotest.(check int) "clone moved" 3 (count replica);
  Alcotest.(check int) "parent unchanged" 2 (count store);
  let lookup st a =
    let src = Core.Tagged_store.source st in
    List.length (List.of_seq (src.R.Source.lookup "Rel" [ (0, V.Int a) ]))
  in
  Alcotest.(check int) "clone lookup sees T1" 1 (lookup replica 3);
  Alcotest.(check int) "parent lookup does not" 0 (lookup store 3);
  (* And the other direction. *)
  Core.Tagged_store.base_only store;
  Alcotest.(check int) "parent narrowed" 1 (count store);
  Alcotest.(check int) "clone unaffected" 3 (count replica)

let store_scan_prop =
  QCheck.Test.make
    ~name:"store scan = base ∪ visible txs, as a set" ~count:100
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_bound 10) (pair (int_bound 4) (int_bound 4)))
        (pair
           (list_of_size (QCheck.Gen.int_bound 3)
              (list_of_size (QCheck.Gen.int_bound 4)
                 (pair (int_bound 4) (int_bound 4))))
           (list_of_size (QCheck.Gen.int_bound 3) (int_bound 2))))
    (fun (base, (pending, visible)) ->
      QCheck.assume (List.for_all (fun tx -> tx <> []) pending);
      let db =
        mk
          (List.map (fun (a, b) -> row a b) base)
          (List.map (List.map (fun (a, b) -> row a b)) pending)
      in
      let store = Core.Tagged_store.create db in
      let k = Core.Tagged_store.tx_count store in
      let visible = List.filter (fun i -> i < k) visible in
      Core.Tagged_store.set_world_list store visible;
      let src = Core.Tagged_store.source store in
      let got =
        List.of_seq (src.R.Source.scan "Rel") |> List.sort_uniq R.Tuple.compare
      in
      let expected =
        List.map (fun (a, b) -> R.Tuple.make [ V.Int a; V.Int b ]) base
        @ List.concat_map
            (fun i ->
              List.map
                (fun (a, b) -> R.Tuple.make [ V.Int a; V.Int b ])
                (List.nth pending i))
            visible
        |> List.sort_uniq R.Tuple.compare
      in
      List.equal R.Tuple.equal got expected)

let () =
  Alcotest.run "store"
    [
      ( "tagged-store",
        [
          Alcotest.test_case "visibility" `Quick test_visibility;
          Alcotest.test_case "set semantics" `Quick test_set_semantics_across_origins;
          Alcotest.test_case "indexed lookup" `Quick test_lookup_respects_visibility;
          Alcotest.test_case "materialize" `Quick test_to_database_matches;
          Alcotest.test_case "clone independence" `Quick
            test_clone_independence;
          QCheck_alcotest.to_alcotest store_scan_prop;
        ] );
    ]
