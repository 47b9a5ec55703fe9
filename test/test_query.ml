(* Query layer: parsing, safety, Gaifman connectivity, monotonicity,
   equality constraints, and evaluation over a database. *)

module R = Relational
module V = R.Value
module Q = Bcquery

let catalog = Chain.Encode.catalog
let parse s = Q.Parser.parse_exn ~catalog s

(* --- parser --- *)

let test_parse_boolean () =
  match parse {| q() :- TxOut(t, s, "U8Pk", a). |} with
  | Q.Query.Boolean body ->
      Alcotest.(check int) "one atom" 1 (List.length body.Q.Cq.positive);
      Alcotest.(check (list string)) "vars" [ "t"; "s"; "a" ] body.Q.Cq.vars
  | Q.Query.Aggregate _ -> Alcotest.fail "expected boolean"

let test_parse_negation_comparison () =
  match
    parse
      {| q() :- TxOut(t, s, pk, a), !TxIn(t, s, pk, a, "n0", "g0"), a > 3, t != s. |}
  with
  | Q.Query.Boolean body ->
      Alcotest.(check int) "negated" 1 (List.length body.Q.Cq.negated);
      Alcotest.(check int) "comparisons" 2 (List.length body.Q.Cq.comparisons)
  | Q.Query.Aggregate _ -> Alcotest.fail "expected boolean"

let test_parse_aggregate () =
  match parse {| q(sum(a)) :- TxOut(t, s, "X", a) | > 5. |} with
  | Q.Query.Aggregate a ->
      Alcotest.(check string) "agg" "sum" (Q.Query.agg_name a.Q.Query.agg);
      Alcotest.(check bool) "theta" true (a.Q.Query.theta = Q.Query.Gt);
      Alcotest.(check bool) "threshold" true
        (V.equal a.Q.Query.threshold (V.Int 5))
  | Q.Query.Boolean _ -> Alcotest.fail "expected aggregate"

let test_parse_errors () =
  let bad input =
    match Q.Parser.parse ~catalog input with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "should not parse: %s" input
  in
  bad {| q() :- TxOut(t, s). |};
  (* arity *)
  bad {| q() :- Unknown(x). |};
  bad {| q() :- TxOut(t, s, pk, a), b > 3. |};
  (* unsafe comparison var *)
  bad {| q() :- !TxOut(t, s, pk, a). |};
  (* no positive atom *)
  bad {| q(sum(a)) :- TxOut(t, s, pk, a). |};
  (* missing threshold *)
  bad {| q() :- TxOut(t, s, pk, a) extra |};
  bad {| q(avg(a)) :- TxOut(t, s, pk, a) | > 1. |}

let roundtrip_cases =
  [
    {| q() :- TxOut(t, s, "U8Pk", a). |};
    {| q() :- TxOut(t, s, pk, a), TxIn(t, s, pk, a, n, g), n != t. |};
    {| q() :- TxOut(t, s, pk, a), !TxIn(t, s, pk, a, "n2", "g2"), a > 3. |};
    {| q(sum(a)) :- TxOut(t, s, "X", a) | > 5. |};
    {| q(cntd(n)) :- TxIn(p, s, "A", a, n, g) | = 10. |};
    "q(count()) :- TxOut(t, s, pk, a), a < 2 | > 3.";
    {| q(max(a)) :- TxOut(t, s, pk, a) | < 7. |};
    {| q(min(a)) :- TxOut(t, s, pk, a) | < 2. |};
  ]

let test_roundtrip () =
  List.iter
    (fun input ->
      let q = parse input in
      let printed = Q.Query.to_string q in
      let q' = Q.Parser.parse_exn ~catalog printed in
      Alcotest.(check string)
        (Printf.sprintf "roundtrip of %s" input)
        printed (Q.Query.to_string q'))
    roundtrip_cases

(* --- Gaifman connectivity (Section 6.2 examples) --- *)

let abc = R.Schema.relation "Rr" [ "a1"; "a2" ]
let svw = R.Schema.relation "Ss" [ "b1"; "b2" ]
let tuv = R.Schema.relation "Tt" [ "c1"; "c2" ]
let small_cat = R.Schema.of_list [ abc; svw; tuv ]

let test_connectivity () =
  (* q() <- R(x,y), S(w,v), T(x,v) is connected. *)
  let connected =
    Q.Parser.parse_exn ~catalog:small_cat
      {| q() :- Rr(x, y), Ss(w, v), Tt(x, v). |}
  in
  (* q() <- R(x,y), S(w,v), y < v is NOT connected: comparisons do not
     link atoms. *)
  let disconnected =
    Q.Parser.parse_exn ~catalog:small_cat {| q() :- Rr(x, y), Ss(w, v), y < v. |}
  in
  let body q = Q.Query.body q in
  Alcotest.(check bool) "connected" true (Q.Gaifman.is_connected (body connected));
  Alcotest.(check bool) "disconnected" false
    (Q.Gaifman.is_connected (body disconnected));
  (* ... but an equality comparison does merge the variables. *)
  let eq_connected =
    Q.Parser.parse_exn ~catalog:small_cat {| q() :- Rr(x, y), Ss(w, v), y = v. |}
  in
  Alcotest.(check bool) "eq merges" true
    (Q.Gaifman.is_connected (body eq_connected));
  (* Shared constants connect atoms (they are terms of the Gaifman
     graph). *)
  let const_connected =
    Q.Parser.parse_exn ~catalog:small_cat {| q() :- Rr(x, "k"), Ss("k", v). |}
  in
  Alcotest.(check bool) "constant connects" true
    (Q.Gaifman.is_connected (body const_connected))

(* --- monotonicity --- *)

let test_monotone () =
  let mono input =
    Q.Monotone.is_monotone (parse input)
  in
  Alcotest.(check bool) "positive cq" true (mono {| q() :- TxOut(t, s, pk, a). |});
  Alcotest.(check bool) "negation" false
    (mono {| q() :- TxOut(t, s, pk, a), !TxIn(t, s, pk, a, "n", "g"). |});
  Alcotest.(check bool) "count >" true
    (mono ({| q(count()) :- TxOut(t, s, pk, a) |} ^ " | > 3."));
  Alcotest.(check bool) "count <" false
    (mono ({| q(count()) :- TxOut(t, s, pk, a) |} ^ " | < 3."));
  Alcotest.(check bool) "sum >" true
    (mono {| q(sum(a)) :- TxOut(t, s, pk, a) | > 3. |});
  Alcotest.(check bool) "sum > without nonneg" false
    (Q.Monotone.is_monotone ~sum_args_nonnegative:false
       (parse {| q(sum(a)) :- TxOut(t, s, pk, a) | > 3. |}));
  Alcotest.(check bool) "max >" true
    (mono {| q(max(a)) :- TxOut(t, s, pk, a) | > 3. |});
  Alcotest.(check bool) "max <" false
    (mono {| q(max(a)) :- TxOut(t, s, pk, a) | < 3. |});
  Alcotest.(check bool) "min <" true
    (mono {| q(min(a)) :- TxOut(t, s, pk, a) | < 3. |});
  Alcotest.(check bool) "cntd =" false
    (mono {| q(cntd(t)) :- TxOut(t, s, pk, a) | = 3. |})

(* --- equality constraints (Example 7) --- *)

let test_theta_of_query () =
  (* q() <- R(w,x,u), S(x,w,z), T(y,x) over R(A1,A2,A3), S(B1,B2,B3),
     T(C1,C2): Θq = { R[1,2]=S[2,1] (0-indexed: R[0,1]=S[1,0]),
     R[A2]=T[C2], S[B1]=T[C2] }. *)
  let r3 = R.Schema.relation "R3" [ "A1"; "A2"; "A3" ] in
  let s3 = R.Schema.relation "S3" [ "B1"; "B2"; "B3" ] in
  let t2 = R.Schema.relation "T2" [ "C1"; "C2" ] in
  let cat = R.Schema.of_list [ r3; s3; t2 ] in
  let q =
    Q.Parser.parse_exn ~catalog:cat {| q() :- R3(w, x, u), S3(x, w, z), T2(y, x). |}
  in
  let thetas = Q.Theta.of_query (Q.Query.body q) in
  let as_strings =
    List.map (fun t -> Format.asprintf "%a" Q.Theta.pp t) thetas
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "Example 7 equality constraints"
    [ "R3[0,1] = S3[1,0]"; "R3[1] = T2[1]"; "S3[0] = T2[1]" ]
    as_strings

let test_theta_of_inds () =
  let thetas = Q.Theta.of_inds (R.Constr.inds Chain.Encode.constraints) in
  Alcotest.(check int) "two inds, two thetas" 2 (List.length thetas)

(* --- evaluation --- *)

let eval_db () =
  let db = R.Database.create catalog in
  R.Database.insert_all db
    [
      ("TxOut", R.Tuple.make [ V.Str "t1"; V.Int 0; V.Str "A"; V.Int 10 ]);
      ("TxOut", R.Tuple.make [ V.Str "t1"; V.Int 1; V.Str "B"; V.Int 5 ]);
      ("TxOut", R.Tuple.make [ V.Str "t2"; V.Int 0; V.Str "A"; V.Int 7 ]);
      ("TxIn", R.Tuple.make
         [ V.Str "t1"; V.Int 0; V.Str "A"; V.Int 10; V.Str "t2"; V.Str "g1" ]);
    ];
  db

let test_eval_boolean () =
  let src = R.Database.source (eval_db ()) in
  let t input = Q.Eval.eval src (parse input) in
  Alcotest.(check bool) "simple match" true (t {| q() :- TxOut(t, s, "A", a). |});
  Alcotest.(check bool) "no match" false (t {| q() :- TxOut(t, s, "Z", a). |});
  Alcotest.(check bool) "join" true
    (t {| q() :- TxOut(t, s, "A", a), TxIn(t, s, "A", a, n, g). |});
  Alcotest.(check bool) "join respects shared vars" false
    (t {| q() :- TxOut(t, s, "B", a), TxIn(t, s, pk, a, n, g). |});
  Alcotest.(check bool) "negation true" true
    (t {| q() :- TxOut(t, s, pk, a), !TxIn(t, s, pk, a, "t9", "g9"). |});
  Alcotest.(check bool) "negation filters" false
    (t {| q() :- TxOut("t1", 0, pk, a), !TxIn("t1", 0, pk, a, "t2", "g1"). |});
  Alcotest.(check bool) "comparison" true
    (t {| q() :- TxOut(t, s, pk, a), a > 9. |});
  Alcotest.(check bool) "comparison filters" false
    (t {| q() :- TxOut(t, s, pk, a), a > 10. |})

let test_eval_witness () =
  let src = R.Database.source (eval_db ()) in
  match parse {| q() :- TxOut(t, s, "B", a). |} with
  | Q.Query.Boolean body -> (
      match Q.Eval.find_witness src Q.Eval.(evaluator (compile body)) with
      | Some bindings ->
          Alcotest.(check bool) "t bound" true
            (List.exists
               (fun (v, value) -> v = "t" && V.equal value (V.Str "t1"))
               bindings);
          Alcotest.(check bool) "a bound" true
            (List.exists
               (fun (v, value) -> v = "a" && V.equal value (V.Int 5))
               bindings)
      | None -> Alcotest.fail "expected a witness")
  | Q.Query.Aggregate _ -> Alcotest.fail "expected boolean"

let test_eval_aggregates () =
  let src = R.Database.source (eval_db ()) in
  let t input = Q.Eval.eval src (parse input) in
  (* A receives 10 + 7 = 17 over two outputs. *)
  Alcotest.(check bool) "sum > 16" true
    (t {| q(sum(a)) :- TxOut(t, s, "A", a) | > 16. |});
  Alcotest.(check bool) "sum > 17" false
    (t {| q(sum(a)) :- TxOut(t, s, "A", a) | > 17. |});
  Alcotest.(check bool) "sum = 17" true
    (t {| q(sum(a)) :- TxOut(t, s, "A", a) | = 17. |});
  Alcotest.(check bool) "count" true
    (t ({| q(count()) :- TxOut(t, s, "A", a) |} ^ " | = 2."));
  Alcotest.(check bool) "cntd txids" true
    (t {| q(cntd(t)) :- TxOut(t, s, pk, a) | = 2. |});
  Alcotest.(check bool) "max" true
    (t {| q(max(a)) :- TxOut(t, s, pk, a) | = 10. |});
  Alcotest.(check bool) "min" true
    (t {| q(min(a)) :- TxOut(t, s, pk, a) | = 5. |});
  (* Footnote 9: an empty bag makes the comparison false, even for '<'. *)
  Alcotest.(check bool) "empty bag is false" false
    (t {| q(count()) :- TxOut(t, s, "Z", a) | < 100. |} = true);
  Alcotest.(check bool) "empty bag sum false" false
    (t {| q(sum(a)) :- TxOut(t, s, "Z", a) | < 100. |})

let test_count_matches () =
  let src = R.Database.source (eval_db ()) in
  match parse {| q() :- TxOut(t, s, pk, a). |} with
  | Q.Query.Boolean body ->
      Alcotest.(check int) "three assignments" 3 (Q.Eval.count_matches src body)
  | Q.Query.Aggregate _ -> Alcotest.fail "expected boolean"

(* A deliberately slow reference evaluator: enumerate the full cartesian
   product of candidate tuples per positive atom, unify, then check
   negated atoms and comparisons. The optimized evaluator must produce
   exactly the same assignment multiset. *)
let reference_matches (src : R.Source.t) (body : Q.Cq.t) =
  let atoms = body.Q.Cq.positive in
  let rec assignments env = function
    | [] -> [ env ]
    | (atom : Q.Atom.t) :: rest ->
        Fixtures.read_all src atom.Q.Atom.rel
        |> List.concat_map (fun tuple ->
               let rec unify env i =
                 if i >= Q.Atom.arity atom then Some env
                 else
                   let v = R.Tuple.get tuple i in
                   match atom.Q.Atom.args.(i) with
                   | Q.Term.Const c ->
                       if R.Value.equal c v then unify env (i + 1) else None
                   | Q.Term.Var x -> (
                       match List.assoc_opt x env with
                       | Some bound ->
                           if R.Value.equal bound v then unify env (i + 1)
                           else None
                       | None -> unify ((x, v) :: env) (i + 1))
               in
               match unify env 0 with
               | Some env -> assignments env rest
               | None -> [])
  in
  let ground env (a : Q.Atom.t) =
    Array.map
      (function
        | Q.Term.Const c -> c
        | Q.Term.Var x -> List.assoc x env)
      a.Q.Atom.args
  in
  let term_value env = function
    | Q.Term.Const c -> c
    | Q.Term.Var x -> List.assoc x env
  in
  assignments [] atoms
  |> List.filter (fun env ->
         List.for_all
           (fun a -> not (src.R.Source.mem a.Q.Atom.rel (ground env a)))
           body.Q.Cq.negated
         && List.for_all
              (fun (c : Q.Cq.comparison) ->
                Q.Cq.cmp c.Q.Cq.op (term_value env c.Q.Cq.clhs)
                  (term_value env c.Q.Cq.crhs))
              body.Q.Cq.comparisons)
  |> List.map (fun env ->
         List.map (fun v -> List.assoc v env) body.Q.Cq.vars)
  |> List.sort compare

let eval_matches_reference =
  QCheck.Test.make ~name:"evaluator = cartesian-product reference" ~count:60
    QCheck.(pair (int_bound 100_000) (int_bound 5))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed |] in
      let db = R.Database.create catalog in
      for i = 0 to 15 + Random.State.int rng 15 do
        let tid = Printf.sprintf "t%d" (Random.State.int rng 5) in
        let pk = Printf.sprintf "P%d" (Random.State.int rng 3) in
        if Random.State.bool rng then
          ignore
            (R.Database.insert db "TxOut"
               (R.Tuple.make
                  [ V.Str tid; V.Int (i mod 4); V.Str pk;
                    V.Int (Random.State.int rng 10) ]))
        else
          ignore
            (R.Database.insert db "TxIn"
               (R.Tuple.make
                  [ V.Str tid; V.Int (i mod 4); V.Str pk;
                    V.Int (Random.State.int rng 10);
                    V.Str (Printf.sprintf "t%d" (Random.State.int rng 5));
                    V.Str "g" ]))
      done;
      let q =
        List.nth
          [
            {| q() :- TxOut(t, s, pk, a). |};
            {| q() :- TxOut(t, s, pk, a), TxIn(t, s, pk, a, n, g). |};
            {| q() :- TxOut(t, s, pk, a), TxOut(t2, s, pk, b), a < b. |};
            {| q() :- TxOut(t, s, "P1", a), a > 4. |};
            {| q() :- TxOut(t, s, pk, a), !TxIn(t, s, pk, a, "t0", "g"). |};
            {| q() :- TxIn(t, s, pk, a, n, g), TxOut(n, s2, pk2, b), t != n. |};
          ]
          qi
      in
      let body =
        match parse q with
        | Q.Query.Boolean b -> b
        | Q.Query.Aggregate _ -> assert false
      in
      let src = R.Database.source db in
      let fast = ref [] in
      Q.Eval.iter_matches src Q.Eval.(evaluator (compile body)) (fun values _ ->
          fast := Array.to_list values :: !fast;
          `Continue);
      List.sort compare !fast = reference_matches src body)

(* Over the tagged store: a random state (in half of the cases with no
   TxOut row, so that relation's base segment is empty and every TxOut
   row is pending), random pending transactions and two random worlds.
   In every plan below the last atom the join reaches is taken without
   a count. [find_witness] and [iter_matches] (values and support) must
   agree with the reference over the world materialized as a plain
   database, and for the negation-free plans [run_delta] from the first
   world to the second must report every new match and only matches. *)
let store_queries =
  [
    ({| q() :- TxOut(t, s, pk, a), TxIn(t, s, pk, a, n, g). |}, true);
    ( {| q() :- TxIn(p, s, pk, a, t, g), TxOut(t, s2, pk, b),
               TxOut(p, s, pk, a). |},
      true );
    ({| q() :- TxOut(t, s, pk, a), TxOut(t2, s, pk, b), a < b. |}, true);
    ({| q() :- TxOut(t, s, "P1", a), a > 4. |}, true);
    ({| q() :- TxOut(t, s, pk, a), !TxIn(t, s, pk, a, "t0", "g"). |}, false);
  ]

let store_eval_matches_reference =
  QCheck.Test.make
    ~name:"store evaluation = reference (forced last atom, empty base segment)"
    ~count:150
    QCheck.(
      pair (int_bound 100_000) (int_bound (List.length store_queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed |] in
      let pick n = Random.State.int rng n in
      let row () =
        let t = V.Str (Printf.sprintf "t%d" (pick 4))
        and s = V.Int (pick 3)
        and pk = V.Str (Printf.sprintf "P%d" (pick 3))
        and a = V.Int (pick 8) in
        if Random.State.bool rng then ("TxOut", R.Tuple.make [ t; s; pk; a ])
        else
          ( "TxIn",
            R.Tuple.make
              [ t; s; pk; a; V.Str (Printf.sprintf "t%d" (pick 4)); V.Str "g" ]
          )
      in
      let base_out = Random.State.bool rng in
      let state = R.Database.create catalog in
      for _ = 0 to pick 10 do
        let rel, t = row () in
        if rel = "TxIn" || base_out then ignore (R.Database.insert state rel t)
      done;
      let pending =
        List.init (2 + pick 5) (fun _ ->
            List.init (1 + pick 3) (fun _ -> row ()))
      in
      let db =
        Bccore.Bcdb.create_unchecked ~state ~constraints:[] ~pending ()
      in
      let store = Bccore.Tagged_store.create db in
      let k = Bccore.Tagged_store.tx_count store in
      let world () =
        List.filter (fun _ -> Random.State.bool rng) (List.init k Fun.id)
      in
      let text, monotone = List.nth store_queries qi in
      let body =
        match parse text with
        | Q.Query.Boolean b -> b
        | Q.Query.Aggregate _ -> assert false
      in
      let ev = Q.Eval.(evaluator (compile body)) in
      let src = Bccore.Tagged_store.source store in
      let reference () =
        reference_matches
          (R.Database.source (Bccore.Tagged_store.to_database store))
          body
      in
      let w0 = world () and w1 = world () in
      Bccore.Tagged_store.set_world_list store w0;
      let ref0 = reference () in
      let prev = Bccore.Tagged_store.world store in
      Bccore.Tagged_store.set_world_list store w1;
      let ref1 = reference () in
      let matches = ref [] and supported = ref true in
      Q.Eval.iter_matches src ev (fun values support ->
          let values = Array.to_list values in
          let env = List.combine body.Q.Cq.vars values in
          supported :=
            !supported
            && List.length support = List.length body.Q.Cq.positive
            && List.for_all2
                 (fun (a : Q.Atom.t) (rel, tuple) ->
                   rel = a.Q.Atom.rel
                   && src.R.Source.mem rel tuple
                   && R.Tuple.equal tuple
                        (Array.map
                           (function
                             | Q.Term.Const c -> c
                             | Q.Term.Var x -> List.assoc x env)
                           a.Q.Atom.args))
                 body.Q.Cq.positive support;
          matches := values :: !matches;
          `Continue);
      let in_order = List.rev !matches in
      let witness_ok =
        match (Q.Eval.find_witness src ev, in_order) with
        | None, [] -> true
        | Some w, first :: _ -> List.map snd w = first
        | _ -> false
      in
      let delta_ok =
        (not monotone)
        ||
        let d = Bccore.Tagged_store.world_delta store ~prev in
        let found = ref [] in
        Q.Eval.run_delta src ev ~delta:(Lazy.force d.Bccore.Tagged_store.added)
          (fun values _ ->
            found := Array.to_list values :: !found;
            `Continue);
        let found = List.sort_uniq compare !found in
        List.for_all (fun m -> List.mem m ref1) found
        && List.for_all
             (fun m -> List.mem m ref0 || List.mem m found)
             ref1
      in
      List.sort compare in_order = ref1 && !supported && witness_ok && delta_ok)

(* Property: evaluation is invariant under atom order permutation. *)
let order_invariance =
  QCheck.Test.make ~name:"join order does not change the result" ~count:50
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = R.Database.create catalog in
      for i = 0 to 20 do
        let pk = Printf.sprintf "P%d" (Random.State.int rng 4) in
        let tid = Printf.sprintf "t%d" (Random.State.int rng 6) in
        ignore
          (R.Database.insert db "TxOut"
             (R.Tuple.make
                [ V.Str tid; V.Int (i mod 3); V.Str pk; V.Int (Random.State.int rng 20) ]))
      done;
      let src = R.Database.source db in
      let q1 =
        parse {| q() :- TxOut(t, s, "P1", a), TxOut(t, s2, "P2", b), a > b. |}
      in
      let q2 =
        parse {| q() :- TxOut(t, s2, "P2", b), TxOut(t, s, "P1", a), a > b. |}
      in
      Q.Eval.eval src q1 = Q.Eval.eval src q2)

let () =
  Alcotest.run "query"
    [
      ( "parser",
        [
          Alcotest.test_case "boolean" `Quick test_parse_boolean;
          Alcotest.test_case "negation+cmp" `Quick test_parse_negation_comparison;
          Alcotest.test_case "aggregate" `Quick test_parse_aggregate;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "monotone" `Quick test_monotone;
          Alcotest.test_case "theta of query" `Quick test_theta_of_query;
          Alcotest.test_case "theta of inds" `Quick test_theta_of_inds;
        ] );
      ( "eval",
        [
          Alcotest.test_case "boolean" `Quick test_eval_boolean;
          Alcotest.test_case "witness" `Quick test_eval_witness;
          Alcotest.test_case "aggregates" `Quick test_eval_aggregates;
          Alcotest.test_case "count matches" `Quick test_count_matches;
          QCheck_alcotest.to_alcotest order_invariance;
          QCheck_alcotest.to_alcotest eval_matches_reference;
          QCheck_alcotest.to_alcotest store_eval_matches_reference;
        ] );
    ]
