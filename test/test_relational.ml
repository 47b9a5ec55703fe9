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

(* The allocation-free hash (lookup tables) must agree with equality
   across every kind of value, negative zero and NaN included. *)
let hash_noalloc_consistent =
  let gen =
    QCheck.Gen.(
      oneof
        [
          return V.Null;
          map (fun b -> V.Bool b) bool;
          map (fun i -> V.Int i) (int_range (-3) 3);
          map (fun f -> V.Float f) (oneofl [ 0.0; -0.0; Float.nan; 1.5; -1.5 ]);
          map (fun s -> V.Str s) (oneofl [ ""; "a"; "b"; "ab" ]);
        ])
  in
  QCheck.Test.make ~name:"equal values hash equally without allocating" ~count:300
    (QCheck.make (QCheck.Gen.pair gen gen))
    (fun (a, b) ->
      ((not (V.equal a b)) || V.hash_noalloc a = V.hash_noalloc b)
      && ((not (R.Tuple.equal [| a; b |] [| b; a |]))
         || R.Tuple.hash_noalloc [| a; b |] = R.Tuple.hash_noalloc [| b; a |]))

let test_hash_noalloc_allocates_nothing () =
  let values = [| V.Int 7; V.Float 2.5; V.Str "txid"; V.Bool true; V.Null |] in
  let t = R.Tuple.make (Array.to_list values) in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    for i = 0 to Array.length values - 1 do
      sink := !sink + V.hash_noalloc values.(i)
    done;
    sink := !sink + R.Tuple.hash_noalloc t
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  (* Value.hash would allocate 3 words per boxed value: 15,000 here. *)
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for 6,000 hashes" words)
    true (words < 100.0)

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
            probe_list (R.Relation.prepare r [||]) [||]
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

let outcome =
  Alcotest.testable
    (fun ppf o ->
      Format.pp_print_string ppf
        (match o with
        | R.Check.Fd_violated -> "Fd_violated"
        | R.Check.Ind_violated -> "Ind_violated"
        | R.Check.Satisfied -> "Satisfied"))
    ( = )

let test_checker_outcome () =
  let fd = R.Constr.fd abc [ "a" ] [ "b" ] in
  let ind = R.Constr.ind ~sub:s_rel [ "x" ] ~sup:abc [ "a" ] in
  let db = mk [ (1, 2, 3) ] [ (1, 9) ] in
  let c = R.Check.checker (R.Database.source db) [ fd; ind ] in
  let judge rows srows =
    R.Check.outcome c
      (List.map (fun (a, b, c) -> ("R", R.Tuple.make [ V.Int a; V.Int b; V.Int c ])) rows
      @ List.map (fun (x, y) -> ("S", R.Tuple.make [ V.Int x; V.Int y ])) srows)
  in
  Alcotest.check outcome "compatible batch" R.Check.Satisfied
    (judge [ (2, 0, 0) ] [ (2, 1) ]);
  Alcotest.check outcome "fd conflict with state" R.Check.Fd_violated
    (judge [ (1, 7, 0) ] []);
  Alcotest.check outcome "internal fd conflict" R.Check.Fd_violated
    (judge [ (5, 1, 0); (5, 2, 0) ] []);
  Alcotest.check outcome "fd judged before ind" R.Check.Fd_violated
    (judge [ (1, 7, 0) ] [ (9, 9) ]);
  Alcotest.check outcome "unsupported ind" R.Check.Ind_violated
    (judge [] [ (9, 9) ]);
  Alcotest.check outcome "ind supported within batch" R.Check.Satisfied
    (judge [ (4, 0, 0) ] [ (4, 2) ]);
  Alcotest.check outcome "ind supported by the state" R.Check.Satisfied
    (judge [] [ (1, 5) ]);
  (* Batches far larger than the checker's first scratch table, then a
     small one on the grown table. *)
  let n = 5000 in
  let big = List.init n (fun i -> (i + 10, 0, 0)) in
  Alcotest.check outcome "large batch" R.Check.Satisfied
    (judge big (List.init n (fun i -> (i + 10, 0))));
  Alcotest.check outcome "large batch, last row clashes" R.Check.Fd_violated
    (judge (big @ [ (10, 1, 0) ]) []);
  Alcotest.check outcome "large batch, last sub unsupported"
    R.Check.Ind_violated
    (judge big (List.init n (fun i -> (i + 11, 0))));
  Alcotest.check outcome "small batch after large" R.Check.Fd_violated
    (judge [ (5, 1, 0); (5, 2, 0) ] [])

let checker_equals_full_check =
  QCheck.Test.make ~name:"Check.outcome fd validity = full recheck" ~count:100
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_bound 8) (triple (int_bound 3) (int_bound 3) (int_bound 3)))
        (list_of_size (QCheck.Gen.int_bound 6) (triple (int_bound 3) (int_bound 3) (int_bound 3))))
    (fun (base_rows, batch_rows) ->
      let fd = R.Constr.fd abc [ "a" ] [ "b" ] in
      let base = mk base_rows [] in
      QCheck.assume (R.Check.satisfies (R.Database.source base) [ fd ]);
      let batch =
        List.map
          (fun (a, b, c) -> ("R", R.Tuple.make [ V.Int a; V.Int b; V.Int c ]))
          batch_rows
      in
      let incremental =
        R.Check.outcome (R.Check.checker (R.Database.source base) [ fd ]) batch
        = R.Check.Satisfied
      in
      let merged = mk (base_rows @ batch_rows) [] in
      let full = R.Check.satisfies (R.Database.source merged) [ fd ] in
      incremental = full)

(* --- the one-pass validity sweep against a materialized oracle --- *)

(* R(a, b, c) with a -> b; S[x] ⊆ R[a]; P[u, v] ⊆ R[c, a] (sup columns
   out of order); P[u, w] ⊆ S[y, y] (one sup column bound twice: u and w
   must both equal one S.y); P: (w, u) -> v (lhs out of order). U is
   unconstrained. *)
let p_rel = R.Schema.relation "P" [ "u"; "v"; "w" ]
let u_rel = R.Schema.relation "U" [ "p" ]
let sweep_cat = R.Schema.of_list [ abc; s_rel; p_rel; u_rel ]

let sweep_constraints =
  [
    R.Constr.fd abc [ "a" ] [ "b" ];
    R.Constr.ind ~sub:s_rel [ "x" ] ~sup:abc [ "a" ];
    R.Constr.ind ~sub:p_rel [ "u"; "v" ] ~sup:abc [ "c"; "a" ];
    R.Constr.ind ~sub:p_rel [ "u"; "w" ] ~sup:s_rel [ "y"; "y" ];
    R.Constr.fd p_rel [ "w"; "u" ] [ "v" ];
  ]

let ints l = R.Tuple.make (List.map (fun i -> V.Int i) l)

(* The state: R rows with b = a mod 2 (the fd holds), S rows citing
   some R row's a, no P row. *)
let sweep_base_gen =
  let open QCheck.Gen in
  let* r = list_size (int_range 1 4) (pair (int_bound 3) (int_bound 3)) in
  let r = List.map (fun (a, c) -> [ a; a mod 2; c ]) r in
  let+ s =
    list_size (int_bound 3)
      (pair (oneofl (List.map List.hd r)) (int_bound 3))
  in
  List.map (fun t -> ("R", ints t)) r @ List.map (fun (x, y) -> ("S", ints [ x; y ])) s

(* One pending transaction: one to four pieces, each of a kind that the
   property must meet — a row that may clash with R, an intra-batch fd
   conflict, an S row supported by the transaction's own R row, an S or
   P row that R, the batch or nothing supports, a P pair clashing on
   the out-of-order fd, rows of the unconstrained U, and a run of many
   rows that grows the checker's scratch table. *)
let sweep_tx_gen =
  let open QCheck.Gen in
  let v = int_bound 3 in
  let piece =
    oneof
      [
        map (fun (a, b, c) -> [ ("R", ints [ a; b; c ]) ]) (triple v v v);
        map
          (fun (a, c) -> [ ("R", ints [ a; 0; c ]); ("R", ints [ a; 1; c ]) ])
          (pair v v);
        map
          (fun (a, y) -> [ ("R", ints [ a + 4; 0; 0 ]); ("S", ints [ a + 4; y ]) ])
          (pair v v);
        map (fun (x, y) -> [ ("S", ints [ x; y ]) ]) (pair v v);
        map (fun (u, v', w) -> [ ("P", ints [ u; v'; w ]) ]) (triple v v v);
        map
          (fun (u, w) -> [ ("P", ints [ u; 0; w ]); ("P", ints [ u; 1; w ]) ])
          (pair v v);
        map (fun p -> [ ("U", ints [ p ]) ]) v;
        (* Many rows: R rows with fresh keys, each cited by an S row. *)
        map
          (fun n ->
            List.concat
              (List.init n (fun i ->
                   [ ("R", ints [ i + 8; i mod 2; 0 ]); ("S", ints [ i + 8; 0 ]) ])))
          (int_range 10 40);
      ]
  in
  map List.concat (list_size (int_range 1 4) piece)

let sweep_equals_materialized =
  QCheck.Test.make
    ~name:"one-pass validity and includability = satisfies over R ∪ T_i"
    ~count:200
    (QCheck.make
       ~print:(fun (base, txs) ->
         let rows rs =
           String.concat " "
             (List.map
                (fun (rel, t) -> rel ^ Format.asprintf "%a" R.Tuple.pp t)
                rs)
         in
         rows base ^ " | " ^ String.concat " | " (List.map rows txs))
       QCheck.Gen.(pair sweep_base_gen (list_size (int_range 1 8) sweep_tx_gen)))
    (fun (base_rows, txs) ->
      let base = R.Database.create sweep_cat in
      R.Database.insert_all base base_rows;
      QCheck.assume (R.Check.satisfies (R.Database.source base) sweep_constraints);
      let fds = List.filter (function R.Constr.Fd _ -> true | _ -> false) sweep_constraints in
      let expected rows =
        let inst = R.Database.copy base in
        R.Database.insert_all inst rows;
        let src = R.Database.source inst in
        (R.Check.satisfies src fds, R.Check.satisfies src sweep_constraints)
      in
      let fd_exp, ok_exp = List.split (List.map expected txs) in
      (* Over the plain database source. *)
      let fd_db, ok_db =
        R.Check.sweep
          (R.Check.checker (R.Database.source base) sweep_constraints)
          (Array.of_list txs)
      in
      (* And as a session computes them: the tagged store's R view. *)
      let db =
        Bccore.Bcdb.create_unchecked ~state:base ~constraints:sweep_constraints
          ~pending:txs ()
      in
      let session = Bccore.Session.create db in
      let fd_sess = (Bccore.Session.fd_graph session).Bccore.Fd_graph.node_ok in
      let ok_sess = Bccore.Session.includable session in
      Array.to_list fd_db = fd_exp
      && Array.to_list ok_db = ok_exp
      && Array.to_list fd_sess = fd_exp
      && Array.to_list ok_sess = ok_exp)

(* The full check against a reference built from projections, on
   instances that may violate anything: the same verdict and the same
   first violation (fds in row order, each against the first row with
   its lhs; inds at the first unsupported sub row), through sweep's
   constraints — out-of-order sup columns, a sup column bound twice,
   an out-of-order lhs. *)
let reference_violation db cs =
  let rows rel = R.Relation.to_list (R.Database.relation db rel) in
  let proj t pos = List.map (fun i -> t.(i)) pos in
  let same a b = List.length a = List.length b && List.for_all2 V.equal a b in
  List.find_map
    (function
      | R.Constr.Fd f ->
          let seen = ref [] in
          List.find_map
            (fun t ->
              match List.find_opt (fun (k, _) -> same k (proj t f.R.Constr.lhs)) !seen with
              | Some (_, t') ->
                  if same (proj t f.R.Constr.rhs) (proj t' f.R.Constr.rhs) then None
                  else Some (R.Check.Fd_violation (f, t', t))
              | None ->
                  seen := (proj t f.R.Constr.lhs, t) :: !seen;
                  None)
            (rows f.R.Constr.frel)
      | R.Constr.Ind i ->
          let sup = List.map (fun t -> proj t i.R.Constr.sup_attrs) (rows i.R.Constr.sup_rel) in
          List.find_map
            (fun t ->
              if List.exists (same (proj t i.R.Constr.sub_attrs)) sup then None
              else Some (R.Check.Ind_violation (i, t)))
            (rows i.R.Constr.sub_rel))
    cs

let check_equals_reference =
  let v = QCheck.Gen.int_bound 3 in
  let row =
    QCheck.Gen.(
      oneof
        [
          map (fun (a, b, c) -> ("R", ints [ a; b; c ])) (triple v v v);
          map (fun (x, y) -> ("S", ints [ x; y ])) (pair v v);
          map (fun (u, w, x) -> ("P", ints [ u; w; x ])) (triple v v v);
        ])
  in
  QCheck.Test.make ~name:"Check.first_violation = projection reference" ~count:300
    (QCheck.make
       ~print:(fun rows ->
         String.concat " "
           (List.map (fun (rel, t) -> rel ^ Format.asprintf "%a" R.Tuple.pp t) rows))
       QCheck.Gen.(list_size (int_bound 12) row))
    (fun rows ->
      let db = R.Database.create sweep_cat in
      R.Database.insert_all db rows;
      let got = R.Check.first_violation (R.Database.source db) sweep_constraints in
      let expected = reference_violation db sweep_constraints in
      match (got, expected) with
      | None, None -> true
      | Some (R.Check.Fd_violation (f, a, b)), Some (R.Check.Fd_violation (f', a', b')) ->
          f == f' && R.Tuple.equal a a' && R.Tuple.equal b b'
      | Some (R.Check.Ind_violation (i, t)), Some (R.Check.Ind_violation (i', t')) ->
          i == i' && R.Tuple.equal t t'
      | _ -> false)

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
          QCheck_alcotest.to_alcotest hash_noalloc_consistent;
          Alcotest.test_case "hash_noalloc allocates nothing" `Quick
            test_hash_noalloc_allocates_nothing;
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
          Alcotest.test_case "checker outcome" `Quick test_checker_outcome;
          QCheck_alcotest.to_alcotest checker_equals_full_check;
          QCheck_alcotest.to_alcotest sweep_equals_materialized;
          QCheck_alcotest.to_alcotest check_equals_reference;
        ] );
    ]
