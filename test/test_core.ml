(* Core-library tests: the paper's running example (Figures 1-3,
   Examples 3, 6, 8) checked verbatim, plus solver agreement properties. *)

module R = Relational
module Q = Bcquery
module Core = Bccore
module Bitset = Bcgraph.Bitset

let sorted_worlds store =
  let acc = ref [] in
  Core.Poss.enumerate store (fun w ->
      acc := Bitset.to_list w :: !acc;
      `Continue);
  List.sort compare !acc

(* --- Possible worlds (Example 3) --- *)

let test_poss_count () =
  let db = Fixtures.paper_db () in
  let store = Core.Tagged_store.create db in
  Alcotest.(check int) "nine possible worlds" 9 (Core.Poss.count store)

let test_poss_exact () =
  let db = Fixtures.paper_db () in
  let store = Core.Tagged_store.create db in
  Alcotest.(check (list (list int)))
    "worlds match Example 3" Fixtures.paper_worlds (sorted_worlds store)

let test_recognition () =
  let db = Fixtures.paper_db () in
  let store = Core.Tagged_store.create db in
  let world ids = Bitset.of_list 5 ids in
  List.iter
    (fun ids ->
      Alcotest.(check bool)
        (Printf.sprintf "world %s recognized"
           (String.concat "," (List.map string_of_int ids)))
        true
        (Core.Poss.is_possible_world store (world ids)))
    Fixtures.paper_worlds;
  List.iter
    (fun ids ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is not a world"
           (String.concat "," (List.map string_of_int ids)))
        false
        (Core.Poss.is_possible_world store (world ids)))
    [ [ 1 ] (* T2 needs T1 *); [ 3 ] (* T4 needs T2, T3 *); [ 0; 4 ]
      (* T1, T5 double-spend *); [ 0; 1; 3 ] (* T4 also needs T3 *);
      [ 1; 2; 3; 4 ] (* T2 without T1 *) ]

(* --- fd graph (Section 6.1) --- *)

let test_fd_graph_cliques () =
  let db = Fixtures.paper_db () in
  let store = Core.Tagged_store.create db in
  let fd =
    Core.Fd_graph.build store
      ~node_ok:(fst (Core.Tagged_store.validity store))
  in
  Alcotest.(check (list bool))
    "all five transactions are individually consistent"
    [ true; true; true; true; true ]
    (Array.to_list fd.Core.Fd_graph.node_ok);
  Alcotest.(check (list (pair int int)))
    "T1 and T5 conflict" [ (0, 4) ] fd.Core.Fd_graph.conflicts;
  let cliques =
    Bcgraph.Bron_kerbosch.maximal_cliques fd.Core.Fd_graph.graph
    |> List.sort compare
  in
  Alcotest.(check (list (list int)))
    "maximal cliques match Section 6.1"
    [ [ 0; 1; 2; 3 ]; [ 1; 2; 3; 4 ] ]
    cliques

(* Node validity and includability are read through the store's fixed
   [R] view: forcing them leaves the active world and its epoch as they
   were, whatever world was active. *)
let test_validity_keeps_world () =
  let session = Core.Session.create (Fixtures.paper_db ()) in
  let store = Core.Session.store session in
  Core.Tagged_store.set_world_list store [ 0; 2; 4 ];
  let world = Bitset.to_list (Core.Tagged_store.world store) in
  let epoch = Core.Tagged_store.epoch store in
  (* T2 spends T1's output and T4 spends T2's and T3's: not includable
     from R alone, whereas the world holds T1. *)
  Alcotest.(check (list bool))
    "includable from R" [ true; false; true; false; true ]
    (Array.to_list (Core.Session.includable session));
  Alcotest.(check (list bool))
    "every node valid" [ true; true; true; true; true ]
    (Array.to_list (Core.Session.fd_graph session).Core.Fd_graph.node_ok);
  Alcotest.(check (list int))
    "world unchanged" world
    (Bitset.to_list (Core.Tagged_store.world store));
  Alcotest.(check int) "epoch unchanged" epoch (Core.Tagged_store.epoch store)

(* The row-filled construction against the pairwise definition: i–j is
   an edge iff both nodes are valid and R ∪ T_i ∪ T_j satisfies the fds,
   and [conflicts] lists exactly the valid pairs that are not adjacent.
   Random Bitcoin-shaped mempools of more than 64 transactions (rows
   span three 32-bit words) over the paper's state, with planted double
   spends (two transactions spending one pending outpoint) and invalid
   nodes (re-spending an output R already spent, or re-issuing an
   output R holds with other values). *)
let fd_graph_oracle_prop =
  QCheck.Test.make ~name:"Fd_graph.build = pairwise fd definition (> 64 txs)"
    ~count:20
    QCheck.(pair (int_range 65 90) (int_bound 1_000_000))
    (fun (k, seed) ->
      let rng = Random.State.make [| seed |] in
      let pending =
        List.init k (fun i ->
            let me = Printf.sprintf "n%d" i in
            let spend =
              if i = 0 || (i >= 3 && Random.State.int rng 10 = 0) then
                Fixtures.in_row "1" 1 "U1Pk" 1.0 me "sig"
              else
                (* T1 and T2 always double-spend o0 *)
                let o = if i < 3 then 0 else Random.State.int rng (2 * k) in
                Fixtures.in_row (Printf.sprintf "o%d" o) 1 "pk" 1.0 me "sig"
            in
            let out =
              if i >= 3 && Random.State.int rng 15 = 0 then
                Fixtures.out_row "2" 2 "UxPk" 9.0
              else Fixtures.out_row me 1 "pk" 1.0
            in
            [ spend; out ])
      in
      let db =
        Core.Bcdb.create_unchecked ~state:(Fixtures.paper_state ())
          ~constraints:Fixtures.constraints ~pending ()
      in
      let store = Core.Tagged_store.create db in
      let fd =
        Core.Fd_graph.build store
          ~node_ok:(fst (Core.Tagged_store.validity store))
      in
      let fds = List.map (fun f -> R.Constr.Fd f) (Core.Bcdb.fds db) in
      (* The fds over a materialized R ∪ rows. *)
      let consistent rows =
        let inst = R.Database.copy db.Core.Bcdb.state in
        R.Database.insert_all inst rows;
        R.Check.satisfies (R.Database.source inst) fds
      in
      let rows i = db.Core.Bcdb.pending.(i).Core.Pending.rows in
      let valid = Array.init k (fun i -> consistent (rows i)) in
      let pairs =
        List.concat_map
          (fun i -> List.init (k - i - 1) (fun d -> (i, i + 1 + d)))
          (List.init k Fun.id)
      in
      let edge (i, j) = valid.(i) && valid.(j) && consistent (rows i @ rows j) in
      let conflicts =
        List.filter (fun (i, j) -> valid.(i) && valid.(j) && not (edge (i, j))) pairs
      in
      Array.exists not valid
      && conflicts <> []
      && Array.to_list fd.Core.Fd_graph.node_ok = Array.to_list valid
      && List.for_all
           (fun (i, j) ->
             Bcgraph.Undirected.connected fd.Core.Fd_graph.graph i j = edge (i, j)
             && Bcgraph.Undirected.connected fd.Core.Fd_graph.graph j i
                = edge (i, j))
           pairs
      && List.for_all
           (fun i -> not (Bcgraph.Undirected.connected fd.Core.Fd_graph.graph i i))
           (List.init k Fun.id)
      && fd.Core.Fd_graph.conflicts = conflicts)

let test_get_maximal () =
  let db = Fixtures.paper_db () in
  let store = Core.Tagged_store.create db in
  let run ids = Bitset.to_list (Core.Get_maximal.run_list store ids) in
  (* Example 6: clique {T2..T5} yields R ∪ {T3, T5}. *)
  Alcotest.(check (list int)) "clique T2..T5" [ 2; 4 ] (run [ 1; 2; 3; 4 ]);
  Alcotest.(check (list int))
    "clique T1..T4 fully appends" [ 0; 1; 2; 3 ]
    (run [ 0; 1; 2; 3 ]);
  Alcotest.(check (list int)) "T4 alone cannot append" [] (run [ 3 ]);
  Alcotest.(check (list int)) "T2 depends on T1" [ 0; 1 ] (run [ 0; 1 ])

let test_maximal_worlds () =
  let session = Fixtures.session_of (Fixtures.paper_db ()) in
  Alcotest.(check (list (list int)))
    "the two maximal worlds"
    [ [ 0; 1; 2; 3 ]; [ 2; 4 ] ]
    (List.sort compare (Core.Maximal_worlds.list session));
  (* The most U4Pk can ever have received: 0.5 (state) + 3 (T2) + 0.5
     (T3) = 4. *)
  let sum_u4 (src : R.Source.t) =
    (match Fixtures.parse {| q(sum(a)) :- TxOut(t, s, "U4Pk", a) | > 0. |} with
    | Q.Query.Aggregate a -> Q.Eval.aggregate_value src Q.Eval.(evaluator (compile a.Q.Query.body)) a
    | Q.Query.Boolean _ -> assert false)
    |> Option.value ~default:(R.Value.Int 0)
  in
  match Core.Maximal_worlds.extremum session sum_u4 ~compare:R.Value.compare with
  | Some (value, world) ->
      Alcotest.(check bool) "max received is 4.0" true
        (R.Value.equal value (R.Value.Float 4.0));
      Alcotest.(check (list int)) "in the big world" [ 0; 1; 2; 3 ] world
  | None -> Alcotest.fail "expected a maximal world"

(* --- DCSat solvers (Examples 6 and 8) --- *)

let outcome_of = function
  | Ok (o : Core.Dcsat.outcome) -> o
  | Error r -> Alcotest.failf "solver refused: %a" Core.Dcsat.pp_refusal r

let test_naive_qs () =
  let session = Fixtures.session_of (Fixtures.paper_db ()) in
  let o = outcome_of (Core.Dcsat.naive session Fixtures.qs_u8) in
  Alcotest.(check bool) "qs(U8Pk) unsatisfied" false o.Core.Dcsat.satisfied;
  Alcotest.(check (option (list int)))
    "witness world is R ∪ T1..T4"
    (Some [ 0; 1; 2; 3 ])
    o.Core.Dcsat.witness_world

let test_opt_qs () =
  let session = Fixtures.session_of (Fixtures.paper_db ()) in
  let o = outcome_of (Core.Dcsat.opt session Fixtures.qs_u8) in
  Alcotest.(check bool) "qs(U8Pk) unsatisfied" false o.Core.Dcsat.satisfied;
  (* Example 8: two components, only one covers the constant U8Pk. *)
  Alcotest.(check int) "two components" 2 o.Core.Dcsat.stats.Core.Dcsat.components_total;
  Alcotest.(check int) "one covered" 1 o.Core.Dcsat.stats.Core.Dcsat.components_covered

let test_brute_qs () =
  let session = Fixtures.session_of (Fixtures.paper_db ()) in
  let o = Core.Dcsat.brute_force session Fixtures.qs_u8 in
  Alcotest.(check bool) "qs(U8Pk) unsatisfied" false o.Core.Dcsat.satisfied

let test_satisfied_constant () =
  let session = Fixtures.session_of (Fixtures.paper_db ()) in
  let q = Fixtures.parse {| q() :- TxOut(t, s, "U9Pk", a). |} in
  let naive = outcome_of (Core.Dcsat.naive session q) in
  let opt = outcome_of (Core.Dcsat.opt session q) in
  let brute = Core.Dcsat.brute_force session q in
  Alcotest.(check bool) "naive satisfied" true naive.Core.Dcsat.satisfied;
  Alcotest.(check bool)
    "decided by the pre-check" true
    naive.Core.Dcsat.stats.Core.Dcsat.precheck_decided;
  Alcotest.(check bool) "opt satisfied" true opt.Core.Dcsat.satisfied;
  Alcotest.(check bool) "brute satisfied" true brute.Core.Dcsat.satisfied

(* A world must include both T1 (hence T2 possible) and T3 to give U4Pk
   more than 3.5 in total; sum > 4 is impossible even in the largest
   world (0.5 + 3 + 0.5 = 4). *)
let test_aggregate_sum () =
  let session = Fixtures.session_of (Fixtures.paper_db ()) in
  let q_gt3 =
    Fixtures.parse {| q(sum(a)) :- TxOut(n, s, "U4Pk", a) | > 3. |}
  in
  let q_gt4 =
    Fixtures.parse {| q(sum(a)) :- TxOut(n, s, "U4Pk", a) | > 4. |}
  in
  let o3 = outcome_of (Core.Dcsat.naive session q_gt3) in
  let o4 = outcome_of (Core.Dcsat.naive session q_gt4) in
  Alcotest.(check bool) "sum > 3 reachable" false o3.Core.Dcsat.satisfied;
  Alcotest.(check bool) "sum > 4 unreachable" true o4.Core.Dcsat.satisfied;
  let b3 = Core.Dcsat.brute_force session q_gt3 in
  let b4 = Core.Dcsat.brute_force session q_gt4 in
  Alcotest.(check bool) "brute agrees (gt3)" false b3.Core.Dcsat.satisfied;
  Alcotest.(check bool) "brute agrees (gt4)" true b4.Core.Dcsat.satisfied

let test_refusals () =
  let session = Fixtures.session_of (Fixtures.paper_db ()) in
  let negated =
    Fixtures.parse {| q() :- TxOut(t, s, pk, a), !TxIn(t, s, pk, a, "u", "g"). |}
  in
  (match Core.Dcsat.naive session negated with
  | Error (`Not_monotone _) -> ()
  | Error `Not_connected -> Alcotest.fail "wrong refusal"
  | Ok _ -> Alcotest.fail "negation must be refused by NaiveDCSat");
  let disconnected =
    Fixtures.parse {| q() :- TxOut(t, s, pk, a), TxOut(u, r, qk, b), a < b. |}
  in
  (match Core.Dcsat.opt session disconnected with
  | Error `Not_connected -> ()
  | Error (`Not_monotone _) -> Alcotest.fail "wrong refusal"
  | Ok _ -> Alcotest.fail "disconnected query must be refused by OptDCSat");
  let aggregate = Fixtures.parse {| q(count()) :- TxOut(t, s, pk, a) | > 100. |} in
  match Core.Dcsat.opt session aggregate with
  | Error `Not_connected -> ()
  | Error (`Not_monotone _) | Ok _ ->
      Alcotest.fail "aggregates must be refused by OptDCSat"

(* --- state evolution --- *)

let test_append_to_state () =
  let db = Fixtures.paper_db () in
  (match Core.Bcdb.append_to_state db 3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "T4 must not append before T2 and T3");
  match Core.Bcdb.append_to_state db 0 with
  | Error msg -> Alcotest.failf "T1 should append: %s" msg
  | Ok db' -> (
      Alcotest.(check int) "four pending remain" 4 (Core.Bcdb.pending_count db');
      (* T5 (now id 3) conflicts with the committed T1. *)
      match Core.Bcdb.append_to_state db' 3 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "T5 must not append after T1")

(* --- solver agreement properties --- *)

let arbitrary_constant =
  QCheck.Gen.oneofl
    [ "U1Pk"; "U2Pk"; "U4Pk"; "U5Pk"; "U7Pk"; "U8Pk"; "U9Pk"; "missing" ]

let agreement_prop =
  QCheck.Test.make ~name:"naive = opt = brute on random simple constraints"
    ~count:60
    QCheck.(
      make
        Gen.(
          pair arbitrary_constant (int_range 0 2)))
    (fun (pk, shape) ->
      let session = Fixtures.session_of (Fixtures.paper_db ()) in
      let q =
        match shape with
        | 0 -> Fixtures.parse (Printf.sprintf {| q() :- TxOut(t, s, "%s", a). |} pk)
        | 1 ->
            Fixtures.parse
              (Printf.sprintf
                 {| q() :- TxIn(p, r, "%s", a, n, g), TxOut(n, s, pk2, b). |} pk)
        | _ ->
            Fixtures.parse
              (Printf.sprintf
                 {| q() :- TxOut(n, s, "%s", a), TxIn(n, s, pk2, a, m, g). |} pk)
      in
      let naive = outcome_of (Core.Dcsat.naive session q) in
      let opt = outcome_of (Core.Dcsat.opt session q) in
      let brute = Core.Dcsat.brute_force session q in
      naive.Core.Dcsat.satisfied = brute.Core.Dcsat.satisfied
      && opt.Core.Dcsat.satisfied = brute.Core.Dcsat.satisfied)

let world_recognition_prop =
  QCheck.Test.make
    ~name:"enumerated worlds are recognized; random sets agree with BFS"
    ~count:100
    QCheck.(make Gen.(list_size (int_bound 5) (int_bound 4)))
    (fun ids ->
      let db = Fixtures.paper_db () in
      let store = Core.Tagged_store.create db in
      let set = Bitset.of_list 5 ids in
      let expected = List.mem (Bitset.to_list set) Fixtures.paper_worlds in
      Core.Poss.is_possible_world store set = expected)

(* A transaction is a set of rows: repeats are dropped and first
   occurrences keep their order, floats' -0.0 = 0.0 included. *)
let pending_dedup_prop =
  let row =
    QCheck.Gen.(
      map2
        (fun rel v -> (rel, [| v |]))
        (oneofl [ "A"; "B" ])
        (oneof
           [
             map (fun i -> R.Value.Int i) (int_bound 6);
             map (fun f -> R.Value.Float f) (oneofl [ 0.0; -0.0; 1.0 ]);
           ]))
  in
  QCheck.Test.make ~name:"Pending.make keeps first occurrences in order" ~count:300
    (QCheck.make
       ~print:(fun rows ->
         String.concat " " (List.map (fun (r, t) -> r ^ R.Tuple.to_string t) rows))
       QCheck.Gen.(list_size (int_range 1 40) row))
    (fun rows ->
      let same (r, t) (r', t') = String.equal r r' && R.Tuple.equal t t' in
      let expected =
        List.rev
          (List.fold_left
             (fun kept row -> if List.exists (same row) kept then kept else row :: kept)
             [] rows)
      in
      let got = (Core.Pending.make ~id:0 rows).Core.Pending.rows in
      List.length got = List.length expected && List.for_all2 same got expected)

let () =
  Alcotest.run "core"
    [
      ( "possible-worlds",
        [
          Alcotest.test_case "count" `Quick test_poss_count;
          Alcotest.test_case "exact set" `Quick test_poss_exact;
          Alcotest.test_case "recognition" `Quick test_recognition;
        ] );
      ( "fd-graph",
        [
          Alcotest.test_case "cliques" `Quick test_fd_graph_cliques;
          Alcotest.test_case "validity keeps the world" `Quick
            test_validity_keeps_world;
          Alcotest.test_case "getMaximal" `Quick test_get_maximal;
          Alcotest.test_case "maximal worlds" `Quick test_maximal_worlds;
          QCheck_alcotest.to_alcotest fd_graph_oracle_prop;
        ] );
      ( "dcsat",
        [
          Alcotest.test_case "naive qs" `Quick test_naive_qs;
          Alcotest.test_case "opt qs" `Quick test_opt_qs;
          Alcotest.test_case "brute qs" `Quick test_brute_qs;
          Alcotest.test_case "satisfied constant" `Quick test_satisfied_constant;
          Alcotest.test_case "aggregate sum" `Quick test_aggregate_sum;
          Alcotest.test_case "refusals" `Quick test_refusals;
        ] );
      ( "evolution",
        [ Alcotest.test_case "append_to_state" `Quick test_append_to_state ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest agreement_prop;
          QCheck_alcotest.to_alcotest world_recognition_prop;
          QCheck_alcotest.to_alcotest pending_dedup_prop;
        ] );
    ]
