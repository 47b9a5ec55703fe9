(* The strongest correctness property in the suite: on randomly generated
   blockchain databases with the *mixed* constraint profile (keys AND
   inclusion dependencies — the CoNP-complete territory), NaiveDCSat and
   OptDCSat must agree with exhaustive possible-world enumeration on
   every monotone denial constraint, and the dispatcher must agree on
   everything it accepts. *)

module R = Relational
module V = R.Value
module Q = Bcquery
module Core = Bccore

(* Schema: Node(id, colour) with key id; Edge(src, dst) with
   Edge[src] ⊆ Node[id] and Edge[dst] ⊆ Node[id]. Random transactions
   insert nodes (possibly key-conflicting) and edges (possibly dangling),
   giving rich clique/component/dependency structure. *)

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

let colours = [| "red"; "green"; "blue" |]

let random_db rng =
  let state = R.Database.create cat in
  (* Base: nodes 0..2 all red, an edge 0 -> 1. *)
  R.Database.insert_all state
    [ node_row 0 "red"; node_row 1 "red"; node_row 2 "red"; edge_row 0 1 ];
  let k = 2 + Random.State.int rng 5 in
  let random_tx () =
    let rows = 1 + Random.State.int rng 2 in
    List.init rows (fun _ ->
        if Random.State.bool rng then
          node_row
            (3 + Random.State.int rng 4)
            colours.(Random.State.int rng 3)
        else edge_row (Random.State.int rng 7) (Random.State.int rng 7))
  in
  Core.Bcdb.create_exn ~state ~constraints
    ~pending:(List.init k (fun _ -> random_tx ()))
    ()

let queries =
  [
    {| q() :- Node(i, "green"). |};
    {| q() :- Edge(s, d), Node(s, "red"), Node(d, c). |};
    {| q() :- Edge(s, d), Edge(d, e), s != e. |};
    {| q() :- Node(4, c). |};
    {| q() :- Edge(s, 5). |};
    {| q() :- Edge(s, d), Node(d, "blue"). |};
    "q(count()) :- Edge(s, d) | > 2.";
    {| q(cntd(c)) :- Node(i, c) | > 2. |};
    {| q(max(i)) :- Node(i, c) | > 5. |};
  ]

let agrees session q =
  let brute = (Core.Dcsat.brute_force session q).Core.Dcsat.satisfied in
  let naive_ok =
    match Core.Dcsat.naive session q with
    | Ok o -> o.Core.Dcsat.satisfied = brute
    | Error _ -> false
  in
  let opt_ok =
    match Core.Dcsat.opt session q with
    | Ok o -> o.Core.Dcsat.satisfied = brute
    | Error `Not_connected -> true (* aggregates / disconnected *)
    | Error (`Not_monotone _) -> false
  in
  let solver_ok =
    match Core.Solver.solve session q with
    | Ok (o, _) -> o.Core.Dcsat.satisfied = brute
    | Error _ -> false
  in
  naive_ok && opt_ok && solver_ok

let agreement =
  QCheck.Test.make
    ~name:"naive = opt = brute on random mixed-constraint databases"
    ~count:120
    QCheck.(pair (int_bound 100_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let session = Core.Session.create db in
      agrees session (Q.Parser.parse_exn ~catalog:cat (List.nth queries qi)))

(* Three satisfied components of 8 worlds each (18 transactions, 3^9
   possible worlds): OptDCSat must walk every component to agree. *)
let grouped_agreement () =
  let session =
    Core.Session.create (Workload.Dense.grouped ~groups:3 ~pairs:3)
  in
  Alcotest.(check bool) "naive = opt = brute" true
    (agrees session (Workload.Dense.grouped_query ()))

(* Witness worlds returned on violation must be genuine possible worlds
   over which the query is true. *)
let witness_soundness =
  QCheck.Test.make ~name:"witness worlds are real and violating" ~count:120
    QCheck.(pair (int_bound 100_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let session = Core.Session.create db in
      let store = Core.Session.store session in
      let q = Q.Parser.parse_exn ~catalog:cat (List.nth queries qi) in
      match Core.Dcsat.naive session q with
      | Error _ -> QCheck.assume_fail ()
      | Ok { Core.Dcsat.satisfied = true; _ } -> true
      | Ok { Core.Dcsat.satisfied = false; witness_world = None; _ } -> false
      | Ok { Core.Dcsat.satisfied = false; witness_world = Some ids; _ } ->
          let world =
            Bcgraph.Bitset.of_list (Core.Tagged_store.tx_count store) ids
          in
          let legal = Core.Poss.is_possible_world store world in
          Core.Tagged_store.set_world store world;
          let violating =
            Q.Eval.eval (Core.Tagged_store.source store) q
          in
          legal && violating)

(* The engine's determinism contract: the parallel backend must return
   exactly the sequential answer — same satisfaction verdict, same
   witness world, and (runtime aside) the same stats: claims happen in
   source order and counts are clamped to the winning violation's
   index, so parallel never *reports* more worlds than sequential. *)
let backend_agreement =
  QCheck.Test.make
    ~name:"parallel backend agrees with sequential (naive & opt)" ~count:80
    QCheck.(pair (int_bound 100_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let session = Core.Session.create db in
      let q = Q.Parser.parse_exn ~catalog:cat (List.nth queries qi) in
      let agree run =
        match (run ~jobs:1, run ~jobs:3) with
        | Ok (seq : Core.Dcsat.outcome), Ok (par : Core.Dcsat.outcome) ->
            seq.Core.Dcsat.satisfied = par.Core.Dcsat.satisfied
            && seq.Core.Dcsat.witness_world = par.Core.Dcsat.witness_world
            && { par.Core.Dcsat.stats with Core.Dcsat.runtime = 0.0 }
               = { seq.Core.Dcsat.stats with Core.Dcsat.runtime = 0.0 }
        | Error _, Error _ -> true (* same refusal either way *)
        | _ -> false
      in
      agree (fun ~jobs -> Core.Dcsat.naive ~jobs session q)
      && agree (fun ~jobs -> Core.Dcsat.opt ~jobs session q)
      (* With the pre-check off, the clique/component enumeration
         actually runs even when R ∪ T already refutes q, which drives
         far more worlds through the session's store (jobs=1) and the
         workers' views (jobs=3). *)
      && agree (fun ~jobs -> Core.Dcsat.naive ~config:Fixtures.no_precheck ~jobs session q)
      && agree (fun ~jobs -> Core.Dcsat.opt ~config:Fixtures.no_precheck ~jobs session q)
      && agree (fun ~jobs ->
             match Core.Dcsat.brute_force ~jobs session q with
             | o -> Ok o
             | exception Invalid_argument m -> Error m))

let () =
  Alcotest.run "agreement"
    [
      ( "solver-agreement",
        [
          QCheck_alcotest.to_alcotest agreement;
          QCheck_alcotest.to_alcotest witness_soundness;
          QCheck_alcotest.to_alcotest backend_agreement;
          Alcotest.test_case "naive = opt = brute on Dense.grouped" `Quick
            grouped_agreement;
        ] );
    ]
