(* Relational substrate: values, tuples, relations, constraints. *)

module R = Relational
module V = R.Value

let v = Alcotest.testable R.Value.pp R.Value.equal

let test_value_order () =
  Alcotest.(check bool) "int lt" true (V.lt (V.Int 1) (V.Int 2));
  Alcotest.(check bool) "mixed numeric lt" true (V.lt (V.Int 1) (V.Float 1.5));
  Alcotest.(check bool) "float/int gt" false (V.lt (V.Float 2.5) (V.Int 2));
  Alcotest.(check bool) "string lt" true (V.lt (V.Str "a") (V.Str "b"));
  Alcotest.(check bool) "incomparable" false (V.lt (V.Str "a") (V.Int 3));
  Alcotest.(check bool) "null incomparable" false (V.lt V.Null (V.Int 0))

let test_value_arith () =
  Alcotest.check v "int add" (V.Int 5) (V.add (V.Int 2) (V.Int 3));
  Alcotest.check v "promote to float" (V.Float 3.5) (V.add (V.Int 2) (V.Float 1.5));
  Alcotest.check v "max" (V.Int 7) (V.max_v (V.Int 7) (V.Int 3));
  Alcotest.check v "min" (V.Int 3) (V.min_v (V.Int 7) (V.Int 3));
  Alcotest.(check_raises) "non-numeric add"
    (Invalid_argument "Value.add: non-numeric operand") (fun () ->
      ignore (V.add (V.Str "x") (V.Int 1)))

let value_total_order =
  QCheck.Test.make ~name:"Value.compare is a total order" ~count:200
    QCheck.(
      triple
        (oneof [ map (fun i -> V.Int i) small_int; map (fun s -> V.Str s) string ])
        (oneof [ map (fun i -> V.Int i) small_int; map (fun s -> V.Str s) string ])
        (oneof [ map (fun i -> V.Int i) small_int; map (fun s -> V.Str s) string ]))
    (fun (a, b, c) ->
      let ( <= ) x y = V.compare x y <= 0 in
      (V.compare a b = -V.compare b a || V.compare a b = 0)
      && ((not (a <= b && b <= c)) || a <= c)
      && V.equal a a)

let float_print_roundtrip =
  QCheck.Test.make ~name:"float printing parses back exactly" ~count:300
    QCheck.float (fun f ->
      QCheck.assume (Float.is_finite f);
      let printed = V.to_string (V.Float f) in
      match float_of_string_opt printed with
      | Some f' -> Float.equal f' f
      | None -> false)

let hash_consistent =
  QCheck.Test.make ~name:"equal values hash equally" ~count:200
    QCheck.(pair small_int small_int)
    (fun (i, j) ->
      (not (V.equal (V.Int i) (V.Int j))) || V.hash (V.Int i) = V.hash (V.Int j))

let test_tuple_project () =
  let t = R.Tuple.make [ V.Int 1; V.Str "x"; V.Int 3 ] in
  Alcotest.(check int) "arity" 3 (R.Tuple.arity t);
  Alcotest.check v "get" (V.Str "x") (R.Tuple.get t 1);
  let p = R.Tuple.project t [ 2; 0 ] in
  Alcotest.check v "projected order" (V.Int 3) (R.Tuple.get p 0);
  Alcotest.check v "projected order" (V.Int 1) (R.Tuple.get p 1);
  (* The identity projection returns the tuple itself, no copy. *)
  Alcotest.(check bool) "identity projection is physical" true
    (R.Tuple.project t [ 0; 1; 2 ] == t);
  Alcotest.(check bool) "prefix projection still copies" false
    (R.Tuple.project t [ 0; 1 ] == t);
  Alcotest.(check_raises) "out of range"
    (Invalid_argument "Tuple.project: position out of range") (fun () ->
      ignore (R.Tuple.project t [ 3 ]))

let test_schema () =
  let r = R.Schema.relation "R" [ "a"; "b"; "c" ] in
  Alcotest.(check int) "arity" 3 (R.Schema.arity r);
  Alcotest.(check int) "attr index" 1 (R.Schema.attr_index r "b");
  Alcotest.(check bool) "missing attr raises" true
    (match R.Schema.attr_index r "z" with
    | exception Not_found -> true
    | _ -> false);
  Alcotest.(check bool) "duplicate attrs rejected" true
    (match R.Schema.relation "S" [ "a"; "a" ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_relation_set_semantics () =
  let r = R.Relation.create (R.Schema.relation "R" [ "a"; "b" ]) in
  let t1 = R.Tuple.make [ V.Int 1; V.Int 2 ] in
  Alcotest.(check bool) "first insert" true (R.Relation.insert r t1);
  Alcotest.(check bool) "duplicate ignored" false (R.Relation.insert r t1);
  Alcotest.(check int) "cardinality" 1 (R.Relation.cardinality r);
  Alcotest.(check bool) "mem" true (R.Relation.mem r t1)

(* Every tuple a prepared probe yields, in its order. *)
let probe_list (p : R.Source.probe) keys =
  let acc = ref [] in
  p.R.Source.iter keys (fun t -> acc := t :: !acc);
  List.rev !acc

let test_relation_lookup () =
  let r = R.Relation.create (R.Schema.relation "R" [ "a"; "b" ]) in
  for i = 1 to 100 do
    ignore (R.Relation.insert r (R.Tuple.make [ V.Int (i mod 10); V.Int i ]))
  done;
  let on_a = R.Relation.prepare r [| 0 |] in
  let hits = probe_list on_a [| V.Int 3 |] in
  Alcotest.(check int) "index lookup size" 10 (List.length hits);
  Alcotest.(check bool) "all match" true
    (List.for_all (fun t -> V.equal (R.Tuple.get t 0) (V.Int 3)) hits);
  let narrowed =
    probe_list (R.Relation.prepare r [| 0; 1 |]) [| V.Int 3; V.Int 13 |]
  in
  Alcotest.(check int) "two binds" 1 (List.length narrowed);
  (* Index (and the probe prepared over it) stays correct across later
     inserts. *)
  ignore (R.Relation.insert r (R.Tuple.make [ V.Int 3; V.Int 1000 ]));
  Alcotest.(check int) "incremental index" 11
    (List.length (probe_list on_a [| V.Int 3 |]))

let lookup_agrees_with_scan =
  QCheck.Test.make ~name:"lookup equals filtered scan" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_bound 40) (pair (int_bound 5) (int_bound 5)))
    (fun rows ->
      let r = R.Relation.create (R.Schema.relation "R" [ "a"; "b" ]) in
      List.iter
        (fun (a, b) -> ignore (R.Relation.insert r (R.Tuple.make [ V.Int a; V.Int b ])))
        rows;
      List.for_all
        (fun key ->
          let via_lookup =
            probe_list (R.Relation.prepare r [| 0 |]) [| V.Int key |]
            |> List.sort R.Tuple.compare
          in
          let via_scan =
            List.of_seq (R.Relation.scan r)
            |> List.filter (fun t -> V.equal (R.Tuple.get t 0) (V.Int key))
            |> List.sort R.Tuple.compare
          in
          List.equal R.Tuple.equal via_lookup via_scan)
        [ 0; 1; 2; 3; 4; 5 ])

(* --- constraints --- *)

let abc = R.Schema.relation "R" [ "a"; "b"; "c" ]
let s_rel = R.Schema.relation "S" [ "x"; "y" ]
let cat = R.Schema.of_list [ abc; s_rel ]

let mk rows srows =
  let db = R.Database.create cat in
  List.iter
    (fun (a, b, c) ->
      ignore (R.Database.insert db "R" (R.Tuple.make [ V.Int a; V.Int b; V.Int c ])))
    rows;
  List.iter
    (fun (x, y) ->
      ignore (R.Database.insert db "S" (R.Tuple.make [ V.Int x; V.Int y ])))
    srows;
  db

let test_fd_check () =
  let fd = R.Constr.fd abc [ "a" ] [ "b" ] in
  let ok = mk [ (1, 2, 3); (1, 2, 4); (2, 9, 0) ] [] in
  let bad = mk [ (1, 2, 3); (1, 5, 4) ] [] in
  Alcotest.(check bool) "fd holds" true
    (R.Check.satisfies (R.Database.source ok) [ fd ]);
  Alcotest.(check bool) "fd violated" false
    (R.Check.satisfies (R.Database.source bad) [ fd ])

let test_key_is_fd () =
  let key = R.Constr.key abc [ "a" ] in
  (match key with
  | R.Constr.Fd f ->
      Alcotest.(check bool) "key detected" true (R.Constr.is_key abc f)
  | R.Constr.Ind _ -> Alcotest.fail "key must be an fd");
  let plain = R.Constr.fd abc [ "a" ] [ "b" ] in
  match plain with
  | R.Constr.Fd f -> Alcotest.(check bool) "not a key" false (R.Constr.is_key abc f)
  | R.Constr.Ind _ -> Alcotest.fail "fd must be an fd"

let test_ind_check () =
  let ind = R.Constr.ind ~sub:s_rel [ "x" ] ~sup:abc [ "a" ] in
  let ok = mk [ (1, 0, 0); (2, 0, 0) ] [ (1, 5); (2, 6) ] in
  let bad = mk [ (1, 0, 0) ] [ (3, 5) ] in
  Alcotest.(check bool) "ind holds" true
    (R.Check.satisfies (R.Database.source ok) [ ind ]);
  match R.Check.first_violation (R.Database.source bad) [ ind ] with
  | Some (R.Check.Ind_violation _) -> ()
  | Some (R.Check.Fd_violation _) | None -> Alcotest.fail "expected ind violation"

let test_batch_consistent () =
  let fd = R.Constr.fd abc [ "a" ] [ "b" ] in
  let ind = R.Constr.ind ~sub:s_rel [ "x" ] ~sup:abc [ "a" ] in
  let db = mk [ (1, 2, 3) ] [ (1, 9) ] in
  let src = R.Database.source db in
  let batch rows srows =
    List.map (fun (a, b, c) -> ("R", R.Tuple.make [ V.Int a; V.Int b; V.Int c ])) rows
    @ List.map (fun (x, y) -> ("S", R.Tuple.make [ V.Int x; V.Int y ])) srows
    |> List.map (fun (n, t) -> (n, [ t ]))
  in
  Alcotest.(check bool) "compatible batch" true
    (R.Check.batch_consistent src [ fd; ind ] (batch [ (2, 0, 0) ] [ (2, 1) ]));
  Alcotest.(check bool) "fd conflict with state" false
    (R.Check.batch_consistent src [ fd; ind ] (batch [ (1, 7, 0) ] []));
  Alcotest.(check bool) "internal fd conflict" false
    (R.Check.batch_consistent src [ fd; ind ]
       (batch [ (5, 1, 0); (5, 2, 0) ] []));
  Alcotest.(check bool) "unsupported ind" false
    (R.Check.batch_consistent src [ fd; ind ] (batch [] [ (9, 9) ]));
  Alcotest.(check bool) "ind supported within batch" true
    (R.Check.batch_consistent src [ fd; ind ] (batch [ (4, 0, 0) ] [ (4, 2) ]))

let batch_equals_full_check =
  QCheck.Test.make ~name:"batch_consistent = full recheck" ~count:100
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_bound 8) (triple (int_bound 3) (int_bound 3) (int_bound 3)))
        (list_of_size (QCheck.Gen.int_bound 6) (triple (int_bound 3) (int_bound 3) (int_bound 3))))
    (fun (base_rows, batch_rows) ->
      let fd = R.Constr.fd abc [ "a" ] [ "b" ] in
      let base = mk base_rows [] in
      QCheck.assume (R.Check.satisfies (R.Database.source base) [ fd ]);
      let batch =
        [
          ( "R",
            List.map
              (fun (a, b, c) -> R.Tuple.make [ V.Int a; V.Int b; V.Int c ])
              batch_rows );
        ]
      in
      let incremental =
        R.Check.batch_consistent (R.Database.source base) [ fd ] batch
      in
      let merged = mk (base_rows @ batch_rows) [] in
      let full = R.Check.satisfies (R.Database.source merged) [ fd ] in
      incremental = full)

let () =
  Alcotest.run "relational"
    [
      ( "value",
        [
          Alcotest.test_case "semantic order" `Quick test_value_order;
          Alcotest.test_case "arithmetic" `Quick test_value_arith;
          QCheck_alcotest.to_alcotest value_total_order;
          QCheck_alcotest.to_alcotest float_print_roundtrip;
          QCheck_alcotest.to_alcotest hash_consistent;
        ] );
      ( "tuple-schema",
        [
          Alcotest.test_case "projection" `Quick test_tuple_project;
          Alcotest.test_case "schema" `Quick test_schema;
        ] );
      ( "relation",
        [
          Alcotest.test_case "set semantics" `Quick test_relation_set_semantics;
          Alcotest.test_case "indexed lookup" `Quick test_relation_lookup;
          QCheck_alcotest.to_alcotest lookup_agrees_with_scan;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "fd" `Quick test_fd_check;
          Alcotest.test_case "key" `Quick test_key_is_fd;
          Alcotest.test_case "ind" `Quick test_ind_check;
          Alcotest.test_case "batch" `Quick test_batch_consistent;
          QCheck_alcotest.to_alcotest batch_equals_full_check;
        ] );
    ]
