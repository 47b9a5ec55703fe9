(* The complexity decision table (Theorems 1-2, Corollary 1) and the
   Explain reports built on top of it. *)

module R = Relational
module Q = Bcquery
module Core = Bccore

(* Three databases with the three constraint profiles. *)
let mixed_db = Fixtures.paper_db

let fd_only_db () =
  let db = R.Database.create Fixtures.account_catalog in
  R.Database.insert_all db [ Fixtures.account_row "ann" "acme" 3 ];
  Core.Bcdb.create_exn ~state:db
    ~constraints:[ R.Constr.key Fixtures.account [ "owner" ] ]
    ~pending:[ [ Fixtures.account_row "bob" "zeta" 5 ] ]
    ()

let customer = R.Schema.relation "Customer" [ "cname"; "city" ]
let orders = R.Schema.relation "Orders" [ "oid"; "cname"; "total" ]
let ind_cat = R.Schema.of_list [ customer; orders ]

let ind_only_db () =
  let db = R.Database.create ind_cat in
  R.Database.insert_all db
    [ ("Customer", R.Tuple.make [ R.Value.Str "ann"; R.Value.Str "oslo" ]) ];
  Core.Bcdb.create_exn ~state:db
    ~constraints:[ R.Constr.ind ~sub:orders [ "cname" ] ~sup:customer [ "cname" ] ]
    ~pending:[ [ ("Orders", R.Tuple.make [ R.Value.Int 1; R.Value.Str "ann"; R.Value.Int 5 ]) ] ]
    ()

let is_ptime = function Core.Complexity.Ptime _ -> true | _ -> false
let is_complete = function Core.Complexity.Conp_complete _ -> true | _ -> false

let fd_parse s = Q.Parser.parse_exn ~catalog:Fixtures.account_catalog s
let ind_parse s = Q.Parser.parse_exn ~catalog:ind_cat s

let check name expected actual = Alcotest.(check bool) name expected actual

let test_boolean_rows () =
  let fd = fd_only_db () and ind = ind_only_db () and mixed = mixed_db () in
  check "Qc/{key,fd} is PTIME" true
    (is_ptime (Core.Complexity.classify fd (fd_parse {| q() :- Account(o, b, x). |})));
  check "Qc/{ind} is PTIME" true
    (is_ptime (Core.Complexity.classify ind (ind_parse {| q() :- Orders(i, c, t). |})));
  check "Q+c/{key,ind} is CoNP-complete" true
    (is_complete (Core.Complexity.classify mixed Fixtures.qs_u8));
  check "Qc/{key,ind} with negation is CoNP-complete" true
    (is_complete
       (Core.Complexity.classify mixed
          (Fixtures.parse
             {| q() :- TxOut(t, s, pk, a), !TxIn(t, s, pk, a, "n", "g"). |})))

let test_aggregate_rows () =
  let fd = fd_only_db () and ind = ind_only_db () and mixed = mixed_db () in
  let c = Core.Complexity.classify in
  (* fd-only *)
  check "max any theta / fd" true
    (is_ptime (c fd (fd_parse {| q(max(x)) :- Account(o, b, x) | = 3. |})));
  check "min any theta / fd" true
    (is_ptime (c fd (fd_parse {| q(min(x)) :- Account(o, b, x) | > 3. |})));
  check "sum< / fd" true
    (is_ptime (c fd (fd_parse {| q(sum(x)) :- Account(o, b, x) | < 3. |})));
  check "count> / fd is CoNP-complete" true
    (is_complete
       (c fd (fd_parse ({| q(count()) :- Account(o, b, x) |} ^ " | > 3."))));
  check "cntd= / fd is CoNP-complete" true
    (is_complete (c fd (fd_parse {| q(cntd(x)) :- Account(o, b, x) | = 3. |})));
  (* ind-only *)
  check "sum> / ind" true
    (is_ptime (c ind (ind_parse {| q(sum(t)) :- Orders(i, c, t) | > 3. |})));
  check "max> / ind" true
    (is_ptime (c ind (ind_parse {| q(max(t)) :- Orders(i, c, t) | > 3. |})));
  check "min< / ind" true
    (is_ptime (c ind (ind_parse {| q(min(t)) :- Orders(i, c, t) | < 3. |})));
  check "count< / ind is CoNP-complete" true
    (is_complete
       (c ind (ind_parse ({| q(count()) :- Orders(i, c, t) |} ^ " | < 3."))));
  check "max= / ind is CoNP-complete" true
    (is_complete (c ind (ind_parse {| q(max(t)) :- Orders(i, c, t) | = 3. |})));
  (* mixed *)
  check "max / {key,ind} is CoNP-complete" true
    (is_complete
       (c mixed (Fixtures.parse {| q(max(a)) :- TxOut(t, s, pk, a) | > 3. |})))

(* The fixture queries of this file, each over every database whose
   catalog it parses against. *)
let fixture_dbs () = [ fd_only_db (); ind_only_db (); mixed_db () ]

let queries db =
  let cat = Core.Bcdb.catalog db in
  List.filter_map
    (fun text ->
      match Q.Parser.parse ~catalog:cat text with
      | Ok q -> Some q
      | Error _ -> None)
    [
      {| q() :- Account(o, b, x). |};
      {| q() :- Orders(i, c, t). |};
      {| q() :- TxOut(t, s, pk, a). |};
      {| q(max(x)) :- Account(o, b, x) | < 2. |};
      {| q(sum(t)) :- Orders(i, c, t) | > 3. |};
      "q(count()) :- Account(o, b, x) | > 1.";
      {| q(sum(a)) :- TxOut(t, s, pk, a) | > 1. |};
      {| q() :- TxOut(t, s, "U8Pk", a). |};
      {| q() :- TxOut(t, s, "U99Pk", a). |};
      {| q() :- TxOut(t, s, pk, a), !TxIn(t, s, pk, a, "n", "g"). |};
    ]

(* Coherence: whenever the tractable solver claims an instance, the
   classification must be PTIME. *)
let tractable_implies_ptime () =
  let dbs = fixture_dbs () in
  List.iter
    (fun db ->
      List.iter
        (fun q ->
          match Core.Tractable.applicable db q with
          | Some _ ->
              Alcotest.(check bool)
                (Q.Query.to_string q)
                true
                (is_ptime (Core.Complexity.classify db q))
          | None -> ())
        (queries db))
    dbs

(* --- Explain --- *)

let test_explain_unsat () =
  let db = Fixtures.paper_db () in
  let session = Core.Session.create db in
  match Core.Explain.run session Fixtures.qs_u8 with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      Alcotest.(check bool) "monotone" true r.Core.Explain.monotone;
      Alcotest.(check bool) "connected" true r.Core.Explain.connected;
      Alcotest.(check string) "strategy" "OptDCSat" r.Core.Explain.strategy;
      Alcotest.(check bool) "unsat" false
        r.Core.Explain.outcome.Core.Dcsat.satisfied;
      Alcotest.(check bool) "trace non-empty" true (r.Core.Explain.trace <> []);
      let text = Core.Explain.to_string db r in
      Alcotest.(check bool) "mentions component labels" true
        (let has needle =
           let n = String.length needle in
           let rec go i =
             i + n <= String.length text
             && (String.sub text i n = needle || go (i + 1))
           in
           go 0
         in
         has "T4" && has "components")

let test_explain_precheck () =
  let db = Fixtures.paper_db () in
  let session = Core.Session.create db in
  let q = Fixtures.parse {| q() :- TxOut(t, s, "U99Pk", a). |} in
  match Core.Explain.run session q with
  | Error msg -> Alcotest.fail msg
  | Ok r -> (
      Alcotest.(check bool) "sat" true r.Core.Explain.outcome.Core.Dcsat.satisfied;
      match r.Core.Explain.trace with
      | [ Core.Dcsat.Precheck_decided ] -> ()
      | _ -> Alcotest.fail "expected exactly the pre-check event")

let test_explain_brute_for_nonmonotone () =
  let db = Fixtures.paper_db () in
  let session = Core.Session.create db in
  let q =
    Fixtures.parse
      {| q() :- TxOut(t, s, pk, a), !TxIn(t, s, pk, a, "n", "g"). |}
  in
  match Core.Explain.run session q with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      Alcotest.(check bool) "not monotone" false r.Core.Explain.monotone;
      Alcotest.(check string) "strategy" "brute force" r.Core.Explain.strategy

(* Explain is the dispatcher plus a trace: same strategy, verdict and
   witness as Solver.solve, and the same solver.strategy.* counter. *)
let test_explain_is_dispatch () =
  List.iter
    (fun db ->
      List.iter
        (fun q ->
          let name = Q.Query.to_string q in
          let session = Core.Session.create db in
          let obs = Bcobs.Obs.create () in
          Core.Session.set_obs session obs;
          match
            (Core.Explain.run session q, Core.Solver.solve (Core.Session.create db) q)
          with
          | Ok r, Ok (o, strategy) ->
              Alcotest.(check string)
                (name ^ ": strategy") (Core.Solver.strategy_name strategy)
                r.Core.Explain.strategy;
              Alcotest.(check bool)
                (name ^ ": verdict and witness") true
                (r.Core.Explain.outcome.Core.Dcsat.verdict = o.Core.Dcsat.verdict);
              let counter =
                match strategy with
                | Core.Solver.Tractable _ -> "solver.strategy.tractable"
                | Core.Solver.Opt -> "solver.strategy.opt"
                | Core.Solver.Naive -> "solver.strategy.naive"
                | Core.Solver.Brute_force -> "solver.strategy.brute_force"
              in
              Alcotest.(check int) (name ^ ": " ^ counter) 1
                (Bcobs.Obs.counter obs counter)
          | Error a, Error b -> Alcotest.(check string) (name ^ ": refusal") b a
          | _ -> Alcotest.failf "%s: explain and solver disagree on refusal" name)
        (queries db))
    (fixture_dbs ())

let () =
  Alcotest.run "complexity"
    [
      ( "classification",
        [
          Alcotest.test_case "boolean rows" `Quick test_boolean_rows;
          Alcotest.test_case "aggregate rows" `Quick test_aggregate_rows;
          Alcotest.test_case "tractable => PTIME" `Quick tractable_implies_ptime;
        ] );
      ( "explain",
        [
          Alcotest.test_case "unsat trace" `Quick test_explain_unsat;
          Alcotest.test_case "precheck event" `Quick test_explain_precheck;
          Alcotest.test_case "brute for non-monotone" `Quick
            test_explain_brute_for_nonmonotone;
          Alcotest.test_case "same answer and counter as the dispatcher" `Quick
            test_explain_is_dispatch;
        ] );
    ]
