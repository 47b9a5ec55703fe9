(* Oracle suite for getMaximal: the counter-based ind propagation of
   {!Core.Get_maximal} must return exactly what the naive rescanning
   closure {!Core.Closure.run} returns under the full constraint set, on
   every maximal clique of the fd graph, and must never switch the
   store's world.

   The random instances plant, in every database: fds together with
   inds, fd-invalid nodes (isolated, so singleton cliques), a
   dependency chain issued in reverse order (the closure needs one pass
   per link), a sup row present both in R and in a pending transaction,
   a requirement with several providers, and requirements no member can
   ever meet. One case in four has more than 64 pending transactions,
   so bitsets span several words. The scenario library and Tractable's
   ind-only calls (the full set and arbitrary allowed subsets, which
   are cliques only because there are no fds) get the same check. *)

module R = Relational
module V = R.Value
module Bitset = Bcgraph.Bitset
module Core = Bccore

let node = R.Schema.relation "Node" [ "id"; "colour" ]
let edge = R.Schema.relation "Edge" [ "src"; "dst" ]
let chain = R.Schema.relation "Chain" [ "n"; "prev" ]
let cat = R.Schema.of_list [ node; edge; chain ]

let inds =
  [
    R.Constr.ind ~sub:edge [ "src" ] ~sup:node [ "id" ];
    R.Constr.ind ~sub:edge [ "dst" ] ~sup:node [ "id" ];
    R.Constr.ind ~sub:chain [ "prev" ] ~sup:chain [ "n" ];
  ]

let constraints = R.Constr.key node [ "id" ] :: R.Constr.key chain [ "n" ] :: inds

let node_row id colour = ("Node", R.Tuple.make [ V.Int id; V.Str colour ])
let edge_row s d = ("Edge", R.Tuple.make [ V.Int s; V.Int d ])
let chain_row n prev = ("Chain", R.Tuple.make [ V.Int n; V.Int prev ])
let colours = [| "red"; "green"; "blue" |]

let base_state () =
  let state = R.Database.create cat in
  R.Database.insert_all state
    [
      node_row 0 "red";
      node_row 1 "red";
      node_row 2 "red";
      edge_row 0 1;
      chain_row 0 0;
    ];
  state

(* Transactions every instance carries, whatever the random part. *)
let planted rng =
  let links = 2 + Random.State.int rng 6 in
  List.concat
    [
      (* fd-invalid: key-conflicts R's Node 0 / Chain 0. *)
      [ [ node_row 0 "green" ]; [ chain_row 0 5; edge_row 0 1 ] ];
      (* Chain(i, i-1) for i = links down to 1: each link needs the
         next transaction in the list. *)
      List.init links (fun j -> [ chain_row (links - j) (links - j - 1) ]);
      (* Node 1 is in R and in this transaction; Edge(1, 2) is
         supported by both. *)
      [ [ node_row 1 "red" ]; [ edge_row 1 2 ] ];
      (* Node 50 has two providers, one of them blocked by an unmet
         row of its own, and a rival in another clique. *)
      [
        [ edge_row 50 0 ];
        [ node_row 50 "blue" ];
        [ node_row 50 "blue"; edge_row 0 99 ];
        [ node_row 50 "green" ];
      ];
      (* Nobody ever provides Node 99 or Chain 98; the chain-with-hole
         transaction also blocks its dependant. *)
      [ [ edge_row 99 0; node_row 52 "red" ]; [ chain_row 97 98 ] ];
      [ [ chain_row 96 97 ] ];
    ]

let random_tx rng ~ids =
  let rows = 1 + Random.State.int rng 3 in
  List.init rows (fun _ ->
      match Random.State.int rng 5 with
      | 0 | 1 ->
          node_row (3 + Random.State.int rng ids)
            colours.(Random.State.int rng (Array.length colours))
      | 2 | 3 ->
          edge_row
            (Random.State.int rng (ids + 3))
            (Random.State.int rng (ids + 3))
      | _ ->
          let n = 100 + Random.State.int rng ids in
          chain_row n (if Random.State.bool rng then 0 else n - 1))

let random_db rng =
  let wide = Random.State.int rng 4 = 0 in
  let extra = if wide then 60 + Random.State.int rng 20 else Random.State.int rng 12 in
  (* Wider id ranges keep key collisions, hence cliques, few. *)
  let ids = if wide then 400 else 8 in
  let pending = planted rng @ List.init extra (fun _ -> random_tx rng ~ids) in
  Core.Bcdb.create_exn ~state:(base_state ()) ~constraints ~pending ()

let max_cliques = 200

(* Every maximal clique of the store's fd graph (at most [max_cliques])
   agrees with the closure, and no call moves the store's world epoch.
   Returns the number of cliques checked. *)
let agrees_on_cliques (db : Core.Bcdb.t) =
  let store = Core.Tagged_store.create db in
  let fd =
    Core.Fd_graph.build store
      ~node_ok:(fst (Core.Tagged_store.validity store))
  in
  let seen = ref 0 in
  let bad = ref None in
  Bcgraph.Bron_kerbosch.iter_maximal_cliques fd.Core.Fd_graph.graph
    (fun clique ->
      incr seen;
      let c = Bitset.of_list (Core.Tagged_store.tx_count store) clique in
      let epoch = Core.Tagged_store.epoch store in
      let fast = Core.Get_maximal.run store c in
      let listed = Core.Get_maximal.run_list store clique in
      let moved = Core.Tagged_store.epoch store <> epoch in
      let oracle =
        Core.Closure.run store ~constraints:db.Core.Bcdb.constraints
          ~candidates:(Bitset.to_list c)
      in
      if moved || not (Bitset.equal fast oracle && Bitset.equal listed oracle)
      then begin
        bad := Some (clique, Bitset.to_list fast, Bitset.to_list oracle, moved);
        `Stop
      end
      else if !seen >= max_cliques then `Stop
      else `Continue);
  match !bad with
  | None -> Ok !seen
  | Some (clique, fast, oracle, moved) ->
      let ints l = String.concat "," (List.map string_of_int l) in
      Error
        (Printf.sprintf "clique [%s]: getMaximal [%s], closure [%s]%s"
           (ints clique) (ints fast) (ints oracle)
           (if moved then ", world switched" else ""))

let cliques_agree =
  QCheck.Test.make ~name:"Get_maximal.run = Closure.run on every maximal clique"
    ~count:60 (QCheck.int_bound 100_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      match agrees_on_cliques (random_db rng) with
      | Ok _ -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* The planted shapes behave as designed on one instance: the invalid
   nodes drop, the reversed chain closes completely, and the
   unmeetable requirements (and their dependants) are left out. *)
let test_planted_shapes () =
  let rng = Random.State.make [| 7 |] in
  let db =
    Core.Bcdb.create_exn ~state:(base_state ()) ~constraints
      ~pending:(planted rng) ()
  in
  let store = Core.Tagged_store.create db in
  let k = Core.Tagged_store.tx_count store in
  let links = k - 11 in
  Alcotest.(check (list int)) "invalid node alone" []
    (Bitset.to_list (Core.Get_maximal.run_list store [ 0 ]));
  let chain_ids = List.init links (fun j -> 2 + j) in
  Alcotest.(check (list int)) "reversed chain closes" chain_ids
    (Bitset.to_list (Core.Get_maximal.run_list store chain_ids));
  let p = 2 + links in
  Alcotest.(check (list int)) "dual-supported row" [ p; p + 1 ]
    (Bitset.to_list (Core.Get_maximal.run_list store [ p; p + 1 ]));
  Alcotest.(check (list int)) "the unblocked provider suffices" [ p + 2; p + 3 ]
    (Bitset.to_list (Core.Get_maximal.run_list store [ p + 2; p + 3; p + 4 ]));
  Alcotest.(check (list int)) "the blocked provider does not" []
    (Bitset.to_list (Core.Get_maximal.run_list store [ p + 2; p + 4 ]));
  Alcotest.(check (list int)) "unmeetable requirement and its dependant" []
    (Bitset.to_list (Core.Get_maximal.run_list store [ p + 6; p + 7; p + 8 ]));
  match agrees_on_cliques db with
  | Ok n -> Alcotest.(check bool) "several cliques" true (n > 1)
  | Error msg -> Alcotest.fail msg

let test_scenario_library () =
  List.iter
    (fun (inst : Scenario.t) ->
      match Scenario.compile inst with
      | Error msg -> Alcotest.failf "%s: compile: %s" inst.Scenario.name msg
      | Ok compiled -> (
          match agrees_on_cliques (Scenario.Compile.db compiled) with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "%s: %s" inst.Scenario.name msg))
    (Scenarios.Catalog.instances ())

(* Tractable's ind-only cases call getMaximal on the full set and on
   arbitrary allowed subsets: no fds, so every subset is a clique. *)
let ind_only_sets_agree =
  QCheck.Test.make ~name:"ind-only: Get_maximal.run = Closure.run on any set"
    ~count:60 (QCheck.int_bound 100_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let with_fds = random_db rng in
      let db =
        Core.Bcdb.create_exn ~state:(base_state ()) ~constraints:inds
          ~pending:
            (Array.to_list
               (Array.map
                  (fun (tx : Core.Pending.t) -> tx.Core.Pending.rows)
                  with_fds.Core.Bcdb.pending))
          ()
      in
      let store = Core.Tagged_store.create db in
      let k = Core.Tagged_store.tx_count store in
      let sets =
        Bitset.full k
        :: List.init 8 (fun _ ->
               Bitset.of_list k
                 (List.filter
                    (fun _ -> Random.State.int rng 4 > 0)
                    (List.init k Fun.id)))
      in
      List.for_all
        (fun allowed ->
          Bitset.equal
            (Core.Get_maximal.run store allowed)
            (Core.Closure.run store ~constraints:inds
               ~candidates:(Bitset.to_list allowed)))
        sets)

let () =
  Alcotest.run "get_maximal"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest cliques_agree;
          Alcotest.test_case "planted shapes" `Quick test_planted_shapes;
          Alcotest.test_case "scenario library" `Quick test_scenario_library;
          QCheck_alcotest.to_alcotest ind_only_sets_agree;
        ] );
    ]
