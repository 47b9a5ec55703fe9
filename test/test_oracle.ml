(* Differential oracle: a tiny, independent Poss(D) enumerator checked
   against the production solvers on random small instances.

   The oracle shares NOTHING with the solver stack under test — no
   Engine, no Tagged_store, no graphs: each candidate subset W of the
   pending transactions is materialized as a plain R.Database (base
   state + the rows of W), constraint satisfaction comes from
   R.Check.satisfies, and W is possible iff it satisfies R ∪ W and is
   empty or reachable by removing one transaction from another possible
   world (the inductive definition of Poss from the paper, Section 3).
   Query truth over a world uses Q.Eval directly on the materialized
   database. Any bug the solvers share with Tagged_store visibility,
   world switching, clique enumeration or the engine shows up as a
   disagreement here. *)

module R = Relational
module V = R.Value
module Q = Bcquery
module Core = Bccore

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

(* Small instances: the oracle enumerates all 2^k subsets. *)
let random_db rng =
  let state = R.Database.create cat in
  R.Database.insert_all state
    [ node_row 0 "red"; node_row 1 "red"; node_row 2 "red"; edge_row 0 1 ];
  let k = 2 + Random.State.int rng 4 in
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
    {| q() :- Edge(s, d), Node(d, "blue"). |};
    "q(count()) :- Edge(s, d) | > 2.";
  ]

(* The plain database R ∪ (∪ W): base rows plus the rows of every
   transaction whose bit is set in [mask]. R.Database has set semantics,
   so tuples contributed twice are stored once — matching the paper's
   definition of a world as a set of tuples. *)
let db_of_mask (db : Core.Bcdb.t) mask =
  let d = R.Database.copy db.Core.Bcdb.state in
  Array.iteri
    (fun i (tx : Core.Pending.t) ->
      if mask land (1 lsl i) <> 0 then
        List.iter
          (fun (rel, tuple) -> ignore (R.Database.insert d rel tuple))
          tx.Core.Pending.rows)
    db.Core.Bcdb.pending;
  d

type oracle = {
  possible : bool array;  (* indexed by subset mask *)
  violating : bool array;  (* q true over the materialized world *)
}

(* Masks increase when bits are added, so a single ascending pass sees
   every W \ {t} before W — the inductive closure needs no fixpoint. *)
let build_oracle db q =
  let k = Array.length db.Core.Bcdb.pending in
  let n = 1 lsl k in
  let possible = Array.make n false in
  let violating = Array.make n false in
  for mask = 0 to n - 1 do
    let d = db_of_mask db mask in
    let src = R.Database.source d in
    let sat = R.Check.satisfies src db.Core.Bcdb.constraints in
    let reachable =
      mask = 0
      || List.exists
           (fun i ->
             mask land (1 lsl i) <> 0 && possible.(mask lxor (1 lsl i)))
           (List.init k Fun.id)
    in
    possible.(mask) <- sat && reachable;
    violating.(mask) <- Q.Eval.eval src q
  done;
  { possible; violating }

let oracle_satisfied o =
  Array.for_all2 (fun p v -> not (p && v)) o.possible o.violating

let mask_of_world ids = List.fold_left (fun m i -> m lor (1 lsl i)) 0 ids

(* One solver outcome against the oracle: the verdict must match, and a
   claimed witness world must be a possible world the oracle finds
   violating (solvers may legitimately return a different violating
   world than the oracle's first, so membership is the right check). *)
let outcome_agrees o (outcome : Core.Dcsat.outcome) =
  let sat_ok = outcome.Core.Dcsat.satisfied = oracle_satisfied o in
  let witness_ok =
    match (outcome.Core.Dcsat.satisfied, outcome.Core.Dcsat.witness_world) with
    | true, _ -> true
    | false, None -> false
    | false, Some ids ->
        let m = mask_of_world ids in
        o.possible.(m) && o.violating.(m)
  in
  sat_ok && witness_ok

let differential ~trace =
  let name =
    Printf.sprintf "solvers match the independent Poss(D) oracle (tracing %s)"
      (if trace then "on" else "off")
  in
  QCheck.Test.make ~name ~count:80
    QCheck.(pair (int_bound 100_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let obs = if trace then Bcobs.Obs.create () else Bcobs.Obs.null in
      let session = Core.Session.create ~obs db in
      let q = Q.Parser.parse_exn ~catalog:cat (List.nth queries qi) in
      let o = build_oracle db q in
      let naive_ok =
        match Core.Dcsat.naive session q with
        | Ok outcome -> outcome_agrees o outcome
        | Error _ -> false
      in
      let opt_ok =
        match Core.Dcsat.opt ~jobs:2 session q with
        | Ok outcome -> outcome_agrees o outcome
        | Error `Not_connected -> true (* aggregates: Naive covers them *)
        | Error (`Not_monotone _) -> false
      in
      let brute_ok =
        outcome_agrees o (Core.Dcsat.brute_force session q)
      in
      naive_ok && opt_ok && brute_ok)

(* The oracle itself must be sane on a hand-checked instance: a
   key-conflicting pair can never be possible together, and a dangling
   edge needs its endpoints. *)
let oracle_sanity () =
  let state = R.Database.create cat in
  R.Database.insert_all state [ node_row 0 "red" ];
  let db =
    Core.Bcdb.create_exn ~state ~constraints
      ~pending:
        [
          [ node_row 1 "green" ];  (* tx0: fine alone *)
          [ node_row 1 "blue" ];  (* tx1: keys with tx0 *)
          [ edge_row 0 1 ];  (* tx2: needs node 1, i.e. tx0 or tx1 *)
        ]
      ()
  in
  let q = Q.Parser.parse_exn ~catalog:cat {| q() :- Node(i, "green"). |} in
  let o = build_oracle db q in
  Alcotest.(check bool) "empty world possible" true o.possible.(0b000);
  Alcotest.(check bool) "tx0 alone possible" true o.possible.(0b001);
  Alcotest.(check bool) "key conflict impossible" false o.possible.(0b011);
  Alcotest.(check bool) "dangling edge impossible" false o.possible.(0b100);
  Alcotest.(check bool) "edge with support possible" true o.possible.(0b101);
  Alcotest.(check bool) "oracle sees the green node" false (oracle_satisfied o)

let () =
  Alcotest.run "oracle"
    [
      ( "differential",
        [
          Alcotest.test_case "oracle sanity" `Quick oracle_sanity;
          QCheck_alcotest.to_alcotest (differential ~trace:false);
          QCheck_alcotest.to_alcotest (differential ~trace:true);
        ] );
    ]
