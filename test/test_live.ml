(* The live layer's contract: after an arbitrary stream of mempool
   events (add / evict / confirm / reorg), every incrementally
   maintained structure — the fd-transaction graph, the ΘI edge set,
   per-transaction includability, the ind-q components — and the DCSat
   verdict itself must be identical to a from-scratch batch rebuild of
   the same database. Plus regression pins for the cache-staleness
   bugs: session caches guarded only by physical database equality
   going stale under in-place state mutation, and memoized getMaximal
   closures surviving an RBF eviction. *)

module R = Relational
module V = R.Value
module Q = Bcquery
module Core = Bccore
module C = Chain

(* Same mixed-constraint schema as the agreement suite: keys AND
   inclusion dependencies, so event streams exercise both conflict
   edges and Θ edges. *)
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
let parse q = Q.Parser.parse_exn ~catalog:cat q

let queries =
  [
    {| q() :- Node(i, "green"). |};
    {| q() :- Edge(s, d), Node(s, "red"), Node(d, c). |};
    {| q() :- Node(4, c). |};
    {| q() :- Edge(s, d), Node(d, "blue"). |};
  ]

(* --- the reference model: a plain record of what the database should
   contain, replayed into [Bcdb.create_unchecked] after every event --- *)

type model = {
  base : (string * R.Tuple.t) list;
  mutable confirmed : (string * (string * R.Tuple.t) list) list;
      (* newest first — a reorg pops the head back into the mempool *)
  mutable pending : (string * (string * R.Tuple.t) list) list;
      (* oldest first, mirroring pending ids *)
}

let model_db m =
  let state = R.Database.create cat in
  R.Database.insert_all state m.base;
  List.iter
    (fun (_, rows) -> R.Database.insert_all state rows)
    (List.rev m.confirmed);
  Core.Bcdb.create_unchecked ~state ~constraints
    ~pending:(List.map snd m.pending)
    ~labels:(List.map fst m.pending)
    ()

let fresh_model () =
  {
    base =
      [ node_row 0 "red"; node_row 1 "red"; node_row 2 "red"; edge_row 0 1 ];
    confirmed = [];
    pending = [];
  }

(* --- structure comparison helpers --- *)

let edge_list g =
  let n = Bcgraph.Undirected.node_count g in
  let acc = ref [] in
  for i = 0 to n - 1 do
    List.iter
      (fun j -> if j > i then acc := (i, j) :: !acc)
      (Bcgraph.Undirected.neighbours g i)
  done;
  List.sort compare !acc

let norm_pairs ps =
  List.sort compare (List.map (fun (a, b) -> (min a b, max a b)) ps)

let norm_comps comps =
  List.sort compare (List.map (List.sort compare) comps)

let fail_diff what step pp a b =
  QCheck.Test.fail_reportf "step %d: %s differ:@.  live:  %s@.  fresh: %s"
    step what (pp a) (pp b)

let pp_pairs ps =
  String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) ps)

let pp_bools bs =
  String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list bs))

let pp_comps cs =
  String.concat "; "
    (List.map (fun c -> "[" ^ String.concat "," (List.map string_of_int c) ^ "]") cs)

(* Every maintained structure against a from-scratch session over the
   model database; true verdict agreement through the solver at the
   given parallelism. *)
let assert_agrees ~step ~jobs live m q =
  let db = model_db m in
  let fresh = Core.Session.create db in
  let lf = Core.Live.fd_graph live and ff = Core.Session.fd_graph fresh in
  if Array.to_list lf.Core.Fd_graph.node_ok <> Array.to_list ff.Core.Fd_graph.node_ok
  then
    fail_diff "fd node validity" step pp_bools lf.Core.Fd_graph.node_ok
      ff.Core.Fd_graph.node_ok;
  let le = edge_list lf.Core.Fd_graph.graph
  and fe = edge_list ff.Core.Fd_graph.graph in
  if le <> fe then fail_diff "fd edges" step pp_pairs le fe;
  let lc = norm_pairs lf.Core.Fd_graph.conflicts
  and fc = norm_pairs ff.Core.Fd_graph.conflicts in
  if lc <> fc then fail_diff "fd conflicts" step pp_pairs lc fc;
  let li = norm_pairs (Core.Live.ind_base_edges live)
  and fi = norm_pairs (Core.Session.ind_base_edges fresh) in
  if li <> fi then fail_diff "ΘI edges" step pp_pairs li fi;
  let linc = Core.Live.includable live
  and finc = Core.Session.includable fresh in
  if Array.to_list linc <> Array.to_list finc then
    fail_diff "includable" step pp_bools linc finc;
  let lcomp = norm_comps (Core.Live.components live q)
  and fcomp = norm_comps (Core.Session.ind_components fresh q) in
  if lcomp <> fcomp then fail_diff "ind-q components" step pp_comps lcomp fcomp;
  let lsat =
    match Core.Live.check ~jobs live q with
    | Ok (o, _) -> o.Core.Dcsat.satisfied
    | Error e -> QCheck.Test.fail_reportf "step %d: live check: %s" step e
  in
  let fsat =
    match Core.Solver.solve ~jobs fresh q with
    | Ok (o, _) -> o.Core.Dcsat.satisfied
    | Error e -> QCheck.Test.fail_reportf "step %d: batch solve: %s" step e
  in
  if lsat <> fsat then
    QCheck.Test.fail_reportf "step %d: verdict differs: live %b, batch %b" step
      lsat fsat;
  true

(* --- random event streams --- *)

let next_label =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "L%d" !n

let random_rows rng =
  let rows = 1 + Random.State.int rng 2 in
  List.sort_uniq compare
    (List.init rows (fun _ ->
         if Random.State.bool rng then
           node_row (3 + Random.State.int rng 4) colours.(Random.State.int rng 3)
         else edge_row (Random.State.int rng 7) (Random.State.int rng 7)))

let random_pending_label rng m = fst (List.nth m.pending (Random.State.int rng (List.length m.pending)))

(* Confirm [label] on each live layer. A from-scratch session over the
   model decides the expected answer: an includable transaction
   ([R ∪ T |= I]) is confirmed and moves to the model's state; any
   other is refused and changes nothing. Returns whether it was
   confirmed. *)
let confirm_event lives m label =
  let id = Option.get (List.find_index (fun (l, _) -> l = label) m.pending) in
  let includable = (Core.Session.includable (Core.Session.create (model_db m))).(id) in
  if includable then begin
    m.confirmed <- (label, List.assoc label m.pending) :: m.confirmed;
    m.pending <- List.filter (fun (l, _) -> l <> label) m.pending
  end;
  List.iter
    (fun live ->
      match (Core.Live.confirm live label, includable) with
      | Ok (), true | Error _, false -> ()
      | Ok (), false ->
          QCheck.Test.fail_reportf "confirm %s: not includable, yet accepted" label
      | Error e, true -> QCheck.Test.fail_reportf "confirm %s: %s" label e)
    lives;
  includable

(* One event, applied to the model and each live layer in lockstep (the
   cache differential drives two instances through the same stream). *)
let step_event rng lives m =
  let pick = Random.State.int rng 100 in
  if pick < 45 || m.pending = [] then begin
    let label = next_label () and rows = random_rows rng in
    m.pending <- m.pending @ [ (label, rows) ];
    List.iter (fun live -> Core.Live.add live ~label rows) lives
  end
  else if pick < 65 then begin
    let label = random_pending_label rng m in
    m.pending <- List.filter (fun (l, _) -> l <> label) m.pending;
    List.iter
      (fun live ->
        match Core.Live.evict live label with
        | Ok () -> ()
        | Error e -> QCheck.Test.fail_reportf "evict %s: %s" label e)
      lives
  end
  else if pick < 85 then
    ignore (confirm_event lives m (random_pending_label rng m) : bool)
  else
    match m.confirmed with
    | [] ->
        let label = next_label () and rows = random_rows rng in
        m.pending <- m.pending @ [ (label, rows) ];
        List.iter (fun live -> Core.Live.add live ~label rows) lives
    | (label, rows) :: rest ->
        (* Reorg: the most recent confirmation is disconnected and its
           transaction returns to the mempool; the live layer resyncs. *)
        m.confirmed <- rest;
        m.pending <- m.pending @ [ (label, rows) ];
        List.iter (fun live -> Core.Live.reset live (model_db m)) lives

(* A block mined elsewhere: rows that enter the state without ever
   having been pending ({!Core.Live.append_state}), recorded in the model
   as one more confirmed block. Only rows that keep R consistent are
   kept — a node id neither R nor the block holds yet, an edge between
   nodes R holds — so the state stays a valid instance. False when no drawn row
   survives and no event was applied. It bumps Live's epoch but leaves
   every tracked partition as it was. *)
let append_state_event rng lives m =
  let state_rows = m.base @ List.concat_map snd m.confirmed in
  let node_ids rows =
    List.filter_map
      (function
        | "Node", tuple -> Some tuple.(0)
        | _ -> None)
      rows
  in
  let rows =
    List.fold_left
      (fun acc ((rel, tuple) as row) ->
        let ids = node_ids (state_rows @ acc) in
        let has v = List.exists (V.equal v) ids in
        match rel with
        | "Node" when not (has tuple.(0)) -> acc @ [ row ]
        | "Edge" when has tuple.(0) && has tuple.(1) -> acc @ [ row ]
        | _ -> acc)
      [] (random_rows rng)
  in
  rows <> []
  && begin
       m.confirmed <- (next_label (), rows) :: m.confirmed;
       List.iter (fun live -> Core.Live.append_state live rows) lives;
       true
     end

let differential ~jobs ~count =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "incremental maintenance = from-scratch rebuild (jobs %d)"
         jobs)
    ~count
    QCheck.(pair (int_bound 1_000_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed; jobs |] in
      let m = fresh_model () in
      let live = Core.Live.create (model_db m) in
      let q = parse (List.nth queries qi) in
      let steps = 6 + Random.State.int rng 5 in
      let ok = ref true in
      for step = 1 to steps do
        step_event rng [ live ] m;
        ok := !ok && assert_agrees ~step ~jobs live m q
      done;
      !ok)

(* --- long streams: the pending set crosses word boundaries -----------

   The short streams above never hold more than a handful of pending
   transactions, so every bitset row fits in one 32-bit word. These
   streams are add-heavy and run until more than 70 transactions are
   pending — past the 32- and 64-bit boundaries the word-level graph
   growth and shrinkage must handle. Besides agreeing with a rebuild
   after every event (components in exactly the canonical order, which
   decides the winning component), maintenance must leave the store's
   active world alone: an add keeps the store, its world and its epoch;
   a removal installs a fresh store that no probe has switched. *)

let world_of live =
  let store = Core.Session.store (Core.Live.session live) in
  (store, Bcgraph.Bitset.to_list (Core.Tagged_store.world store),
   Core.Tagged_store.epoch store)

let wide_rows rng =
  List.sort_uniq compare
    (List.init
       (1 + Random.State.int rng 2)
       (fun _ ->
         if Random.State.int rng 3 > 0 then
           node_row (3 + Random.State.int rng 60) colours.(Random.State.int rng 3)
         else edge_row (Random.State.int rng 63) (Random.State.int rng 63)))

let long_stream =
  QCheck.Test.make ~name:"long stream past 70 pending = rebuild, world-free"
    ~count:3
    QCheck.(pair (int_bound 1_000_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed; 0x70 |] in
      let m = fresh_model () in
      let live = Core.Live.create (model_db m) in
      let q = parse (List.nth queries qi) in
      let step = ref 0 in
      let unchanged what (store, w, e) =
        let store', w', e' = world_of live in
        let ok =
          if store' == store then w' = w && e' = e
          else (what <> "add" && w' = [] && e' = 0)
        in
        if not ok then
          QCheck.Test.fail_reportf
            "step %d: %s moved the store's world: [%s]@%d -> [%s]@%d" !step
            what
            (String.concat "," (List.map string_of_int w))
            e
            (String.concat "," (List.map string_of_int w'))
            e';
        true
      in
      let agrees () =
        ignore (assert_agrees ~step:!step ~jobs:1 live m q : bool);
        let fresh = Core.Session.create (model_db m) in
        if Core.Live.components live q <> Core.Session.ind_components fresh q
        then
          fail_diff "component order" !step pp_comps (Core.Live.components live q)
            (Core.Session.ind_components fresh q)
      in
      let crossed32 = ref false and crossed64 = ref false in
      while List.length m.pending <= 70 do
        incr step;
        let before = world_of live in
        let pick = Random.State.int rng 100 in
        if pick < 80 || m.pending = [] then begin
          let label = next_label () and rows = wide_rows rng in
          m.pending <- m.pending @ [ (label, rows) ];
          Core.Live.add live ~label rows;
          ignore (unchanged "add" before : bool)
        end
        else begin
          let label = random_pending_label rng m in
          let what =
            if pick < 90 then begin
              m.pending <- List.filter (fun (l, _) -> l <> label) m.pending;
              (match Core.Live.evict live label with
              | Ok () -> ()
              | Error e -> QCheck.Test.fail_reportf "evict %s: %s" label e);
              "evict"
            end
            else begin
              ignore (confirm_event [ live ] m label : bool);
              "confirm"
            end
          in
          ignore (unchanged what before : bool)
        end;
        let k = Core.Live.pending_count live in
        if k > 32 then crossed32 := true;
        if k > 64 then crossed64 := true;
        (* Full agreement every few events (and the check moves the
           world, so the next event starts from a non-trivial one). *)
        if !step mod 4 = 0 || k > 64 then agrees ()
      done;
      agrees ();
      !crossed32 && !crossed64)

(* --- duplicate labels: a rejected add changes nothing ---------------- *)

let test_duplicate_add_rejected () =
  let m = fresh_model () in
  m.pending <- [ ("A", [ node_row 3 "green" ]); ("T2", [ edge_row 3 0 ]) ];
  let live = Core.Live.create (model_db m) in
  let q = parse (List.nth queries 1) in
  ignore (Core.Live.components live q : int list list);
  let before = world_of live in
  (match Core.Live.try_add live ~label:"A" [ node_row 5 "blue" ] with
  | Ok () -> Alcotest.fail "a duplicate label was accepted"
  | Error _ -> ());
  (match Core.Live.try_add live ~label:"T2" [ node_row 6 "red" ] with
  | Ok () -> Alcotest.fail "a duplicate T<n> label was accepted"
  | Error _ -> ());
  (match Core.Live.try_add live ~label:"C" [] with
  | Ok () -> Alcotest.fail "an empty transaction was accepted"
  | Error _ -> ());
  (match Core.Live.try_add live ~label:"C" [ ("Nope", R.Tuple.make [ V.Int 1 ]) ] with
  | Ok () -> Alcotest.fail "a row of an unknown relation was accepted"
  | Error _ -> ());
  let store, w, e = world_of live in
  let store', w', e' = before in
  Alcotest.(check bool) "same store, world and epoch" true
    (store == store' && w = w' && e = e');
  Alcotest.(check int) "still two pending" 2 (Core.Live.pending_count live);
  Alcotest.(check bool) "maintained structures = rebuild" true
    (assert_agrees ~step:0 ~jobs:1 live m q);
  (* ... and the layer keeps accepting fresh arrivals afterwards. *)
  m.pending <- m.pending @ [ ("C", [ node_row 5 "blue" ]) ];
  Core.Live.add live ~label:"C" [ node_row 5 "blue" ];
  Alcotest.(check bool) "then a fresh add = rebuild" true
    (assert_agrees ~step:1 ~jobs:1 live m q)

(* An unlabelled add takes the first free "T<n>" from n = pending + 1,
   as a file numbers its unlabelled transactions: T6 on the paper
   database (T1..T5), where the 0-based id would have named it T5. *)
let test_unlabelled_add () =
  let live = Core.Live.create (Fixtures.paper_db ()) in
  (match Core.Live.try_add live ~label:"T5" [ Fixtures.out_row "9" 1 "U9Pk" 2.0 ] with
  | Ok () -> Alcotest.fail "an explicit duplicate label was accepted"
  | Error _ -> ());
  (match Core.Live.try_add live [ Fixtures.out_row "9" 1 "U9Pk" 2.0 ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("the unlabelled add was refused: " ^ e));
  Alcotest.(check (option int)) "labelled T6" (Some 5) (Core.Live.find live "T6");
  Alcotest.(check (option int)) "T5 is still the fifth" (Some 4) (Core.Live.find live "T5")

(* --- a confirm of a transaction that is not includable is refused ---- *)

let test_confirm_not_includable () =
  let m = fresh_model () in
  (* "KEY" re-colours node 0 (the key fails against R); "DANGLING" adds
     an edge from a node nobody holds (the inclusion fails); "OK" is
     includable. *)
  m.pending <-
    [ ("KEY", [ node_row 0 "blue" ]); ("DANGLING", [ edge_row 9 0 ]);
      ("OK", [ node_row 3 "green" ]) ];
  let live = Core.Live.create (model_db m) in
  let q = parse (List.nth queries 1) in
  ignore (Core.Live.components live q : int list list);
  let before = world_of live in
  List.iter
    (fun label ->
      Alcotest.(check bool) (label ^ " refused") false (confirm_event [ live ] m label))
    [ "KEY"; "DANGLING" ];
  let store, w, e = world_of live in
  let store', w', e' = before in
  Alcotest.(check bool) "same store, world and epoch" true
    (store == store' && w = w' && e = e');
  Alcotest.(check int) "still three pending" 3 (Core.Live.pending_count live);
  Alcotest.(check bool) "maintained structures = rebuild" true
    (assert_agrees ~step:0 ~jobs:1 live m q);
  Alcotest.(check bool) "an includable confirm goes through" true
    (confirm_event [ live ] m "OK");
  Alcotest.(check bool) "then = rebuild" true (assert_agrees ~step:1 ~jobs:1 live m q)

(* --- satellite 3 (PR 10): the verdict cache must be invisible --------

   Two live instances over the same initial database, driven by the
   identical event stream; one checks with the per-(query, component)
   verdict cache forced on, the other with it forced off. At every
   interleaved check (every [k] events, so caches go warm, dirty and
   warm again) the whole outcome — verdict constructor, satisfied bit,
   witness world and witness assignment — must be bit-identical, at
   jobs 1 and at jobs 4. *)

let pp_world = function
  | None -> "-"
  | Some ws -> "[" ^ String.concat "," (List.map string_of_int ws) ^ "]"

let pp_binding = function
  | None -> "-"
  | Some bs ->
      String.concat ","
        (List.map (fun (x, v) -> Printf.sprintf "%s=%s" x (V.to_string v)) bs)

let outcome_sig (o : Core.Dcsat.outcome) =
  let v =
    match o.Core.Dcsat.verdict with
    | Core.Dcsat.Satisfied -> "satisfied"
    | Core.Dcsat.Violated _ -> "violated"
    | Core.Dcsat.Unknown _ -> "unknown"
  in
  (v, o.Core.Dcsat.satisfied, o.Core.Dcsat.witness_world, o.Core.Dcsat.witness)

let cache_differential ~jobs ~count =
  QCheck.Test.make
    ~name:(Printf.sprintf "cached check = uncached check (jobs %d)" jobs)
    ~count
    QCheck.(pair (int_bound 1_000_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed; jobs; 0xCACE |] in
      let m = fresh_model () in
      let cached = Core.Live.create (model_db m) in
      let uncached = Core.Live.create (model_db m) in
      let q = parse (List.nth queries qi) in
      let steps = 6 + Random.State.int rng 5 in
      let k = 1 + Random.State.int rng 2 in
      let agree step =
        let solve ~use_cache live =
          match Core.Live.check ~jobs ~use_cache live q with
          | Ok (o, _) -> o
          | Error e -> QCheck.Test.fail_reportf "step %d: check: %s" step e
        in
        let oc = solve ~use_cache:true cached
        and ou = solve ~use_cache:false uncached in
        let ((vc, sc, wc, bc) as c) = outcome_sig oc
        and ((vu, su, wu, bu) as u) = outcome_sig ou in
        if c <> u then
          QCheck.Test.fail_reportf
            "step %d: cache changes the answer:@.  cached:   %s sat=%b world \
             %s witness %s@.  uncached: %s sat=%b world %s witness %s"
            step vc sc (pp_world wc) (pp_binding bc) vu su (pp_world wu)
            (pp_binding bu);
        true
      in
      let ok = ref true in
      for step = 1 to steps do
        if
          not
            (Random.State.int rng 100 < 20
            && append_state_event rng [ cached; uncached ] m)
        then step_event rng [ cached; uncached ] m;
        if step mod k = 0 then ok := !ok && agree step
      done;
      (* Two back-to-back checks of the final mempool: the second runs
         against a fully warm cache (every component a hit). *)
      ok := !ok && agree (steps + 1) && agree (steps + 2);
      !ok)

(* --- satellite 1: session caches vs in-place state mutation ---------

   The session's plan/graph/component caches used to be guarded only by
   physical equality of the database value; mutating the *same*
   database between two solves kept serving the stale structures. The
   generation stamp must notice the mutation and revalidate. *)

let test_session_state_mutation () =
  let state = R.Database.create cat in
  R.Database.insert_all state [ node_row 0 "red"; node_row 1 "red" ];
  let db =
    Core.Bcdb.create_exn ~state ~constraints
      ~pending:[ [ node_row 3 "red" ] ]
      ()
  in
  let session = Core.Session.create db in
  let q = parse {| q() :- Node(4, "green"). |} in
  let solve () =
    match Core.Solver.solve session q with
    | Ok (o, _) -> o.Core.Dcsat.satisfied
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "no green node 4 anywhere: satisfied" true (solve ());
  (* Mutate the same database value in place between the two solves. *)
  ignore (R.Database.insert state "Node" (R.Tuple.make [ V.Int 4; V.Str "green" ]) : bool);
  Alcotest.(check bool)
    "the in-place row violates q over R itself: second solve must see it"
    false (solve ())

(* The same staleness through the maximal-world path: a state row that
   key-conflicts a pending transaction shrinks every world containing
   it; a cached getMaximal closure would keep reporting the old
   (now-impossible) world and the old verdict. *)
let test_maximal_world_state_mutation () =
  let state = R.Database.create cat in
  R.Database.insert_all state [ node_row 0 "red" ];
  let db =
    Core.Bcdb.create_exn ~state ~constraints
      ~pending:[ [ node_row 5 "green" ] ]
      ()
  in
  let session = Core.Session.create db in
  let q = parse {| q() :- Node(5, "green"). |} in
  let solve () =
    match Core.Solver.solve session q with
    | Ok (o, _) -> (o.Core.Dcsat.satisfied, o.Core.Dcsat.witness_world)
    | Error e -> Alcotest.fail e
  in
  let sat1, world1 = solve () in
  Alcotest.(check bool) "world {T0} violates q" false sat1;
  Alcotest.(check (option (list int))) "witnessed by T0" (Some [ 0 ]) world1;
  (* Node id 5 is now taken in R: T0 turns fd-invalid, the only possible
     world is {}, and the constraint holds. *)
  ignore (R.Database.insert state "Node" (R.Tuple.make [ V.Int 5; V.Str "red" ]) : bool);
  let sat2, world2 = solve () in
  Alcotest.(check bool) "T0 can no longer join any world" true sat2;
  Alcotest.(check (option (list int))) "no witness survives" None world2

(* --- satellite 3: eviction must invalidate memoized getMaximal ------

   Two key-rival transactions, the constraint violated only through the
   rival's world. After the RBF eviction the cached maximal worlds of
   the old graph must be unreachable — the verdict flips. *)

let test_evict_invalidates_maximal_worlds () =
  let state = R.Database.create cat in
  R.Database.insert_all state [ node_row 0 "red" ];
  let db =
    Core.Bcdb.create_exn ~state ~constraints
      ~pending:[ [ node_row 9 "green" ]; [ node_row 9 "blue" ] ]
      ~labels:[ "T-green"; "T-blue" ]
      ()
  in
  let live = Core.Live.create db in
  let blue = parse {| q() :- Node(i, "blue"). |} in
  let green = parse {| q() :- Node(i, "green"). |} in
  let check q =
    match Core.Live.check live q with
    | Ok (o, _) -> o.Core.Dcsat.satisfied
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "blue reachable through T-blue's world" false
    (check blue);
  Alcotest.(check bool) "green reachable too" false (check green);
  (match Core.Live.evict live "T-blue" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool)
    "after eviction no world contains blue: a cached maximal world would lie"
    true (check blue);
  Alcotest.(check bool) "the survivor still violates green" false (check green);
  Alcotest.(check int) "one pending left" 1 (Core.Live.pending_count live)

(* --- the feed: live layer vs re-encoding the node from scratch ------ *)

let sorted_state_rows db =
  let state = db.Core.Bcdb.state in
  List.map
    (fun r ->
      let acc = ref [] in
      R.Database.iter_tuples state r.R.Schema.name (fun t -> acc := t :: !acc);
      (r.R.Schema.name, List.sort compare !acc))
    (R.Schema.relations (R.Database.catalog state))

let pending_view db =
  Array.to_list db.Core.Bcdb.pending
  |> List.map (fun tx -> (tx.Core.Pending.label, List.sort compare tx.Core.Pending.rows))

let assert_feed_consistent msg feed =
  let node_db =
    match C.Encode.bcdb_of_node (C.Feed.node feed) with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  let live = C.Feed.live feed in
  let live_db = Core.Live.db live in
  Alcotest.(check bool)
    (msg ^ ": pending set matches a fresh encode")
    true
    (pending_view node_db = pending_view live_db);
  Alcotest.(check bool)
    (msg ^ ": state contents match a fresh encode")
    true
    (sorted_state_rows node_db = sorted_state_rows live_db);
  (* And the maintained graphs match what a batch session would build
     over the re-encoded database. *)
  let fresh = Core.Session.create node_db in
  let lf = Core.Live.fd_graph live and ff = Core.Session.fd_graph fresh in
  Alcotest.(check bool)
    (msg ^ ": fd graph matches a rebuild")
    true
    (Array.to_list lf.Core.Fd_graph.node_ok
     = Array.to_list ff.Core.Fd_graph.node_ok
    && edge_list lf.Core.Fd_graph.graph = edge_list ff.Core.Fd_graph.graph);
  Alcotest.(check bool)
    (msg ^ ": includability matches a rebuild")
    true
    (Array.to_list (Core.Live.includable live)
    = Array.to_list (Core.Session.includable fresh))

let feed_wallets () = Array.init 2 (fun i -> C.Wallet.create ~seed:(Printf.sprintf "live%d" i))

let test_feed_tracks_node () =
  let ws = feed_wallets () in
  let initial =
    Array.to_list ws
    |> List.concat_map (fun w ->
           List.init 3 (fun _ -> (C.Wallet.address w, 50_000)))
  in
  let node = C.Node.create ~initial in
  let feed =
    match C.Feed.create node with Ok f -> f | Error e -> Alcotest.fail e
  in
  assert_feed_consistent "fresh" feed;
  let pay from to_ amount fee =
    match
      C.Wallet.pay ws.(from) ~utxo:(C.Node.utxo node)
        ~to_:(C.Wallet.address ws.(to_)) ~amount ~fee
    with
    | Ok tx -> tx
    | Error e -> Alcotest.fail e
  in
  let tx1 = pay 0 1 4_000 100 in
  (match C.Feed.submit feed tx1 with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit: %a" C.Mempool.pp_reject r);
  assert_feed_consistent "after submit" feed;
  Alcotest.(check int) "one pending" 1
    (Core.Live.pending_count (C.Feed.live feed));
  (* An eviction observed through the mempool hook. *)
  let tx2 = pay 1 0 3_000 100 in
  (match C.Feed.submit feed tx2 with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit: %a" C.Mempool.pp_reject r);
  C.Mempool.remove (C.Node.mempool node) tx2.C.Tx.txid;
  (match C.Feed.sync feed with Ok () -> () | Error e -> Alcotest.fail e);
  assert_feed_consistent "after evict" feed;
  Alcotest.(check int) "back to one pending" 1
    (Core.Live.pending_count (C.Feed.live feed));
  (* Confirmation: tx1 moves into the state, the coinbase is appended
     without ever having been pending. *)
  (match C.Feed.mine feed ~coinbase_script:(C.Wallet.address ws.(0)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  assert_feed_consistent "after mine" feed;
  Alcotest.(check int) "mempool drained" 0
    (Core.Live.pending_count (C.Feed.live feed))

let test_feed_survives_reorg () =
  let ws = feed_wallets () in
  let initial =
    Array.to_list ws
    |> List.concat_map (fun w ->
           List.init 3 (fun _ -> (C.Wallet.address w, 50_000)))
  in
  let net = C.Network.create ~peers:2 ~initial () in
  let node = C.Network.peer net 0 in
  let feed =
    match C.Feed.create node with Ok f -> f | Error e -> Alcotest.fail e
  in
  (* Peer 0 mines one block locally; peer 1 (partitioned) builds the
     longer branch. Healing forces a reorg at peer 0, which the feed
     must absorb with a full resync. *)
  C.Network.partition net [ 1 ];
  (match C.Feed.mine feed ~coinbase_script:(C.Wallet.address ws.(0)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  assert_feed_consistent "after local block" feed;
  for _ = 1 to 2 do
    match
      C.Network.mine_at net ~at:1 ~coinbase_script:(C.Wallet.address ws.(1)) ()
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  C.Network.heal net;
  ignore (C.Network.deliver net ());
  Alcotest.(check int) "peer 0 adopted the longer branch" 2
    (C.Chain_state.height (C.Node.chain node));
  (match C.Feed.sync feed with Ok () -> () | Error e -> Alcotest.fail e);
  assert_feed_consistent "after reorg" feed

(* A budget that cannot trip is the unbudgeted request: its check takes
   the verdict cache. A world-bounded one bypasses it. *)
let test_budget_cacheability () =
  let live = Core.Live.create (Fixtures.paper_db ()) in
  let checks () = (Core.Live.cache_stats live).Core.Live.cache_checks in
  let hits () = (Core.Live.cache_stats live).Core.Live.cache_hits in
  let check budget =
    match Core.Live.check ~use_cache:true ~budget live Fixtures.qs_u8 with
    | Ok (o, _) -> o.Core.Dcsat.satisfied
    | Error e -> Alcotest.fail e
  in
  let unlimited () = Core.Engine.Budget.create () in
  let first = check (unlimited ()) in
  let second = check (unlimited ()) in
  Alcotest.(check bool) "same verdict" first second;
  Alcotest.(check int) "both checks used the cache" 2 (checks ());
  Alcotest.(check bool) "the second hit it" true (hits () > 0);
  let before = hits () in
  let bounded = check (Core.Engine.Budget.create ~max_worlds:1000 ()) in
  Alcotest.(check bool) "bounded verdict" first bounded;
  Alcotest.(check int) "bounded check bypassed the cache" 2 (checks ());
  Alcotest.(check int) "and recorded no hit" before (hits ())

let () =
  Alcotest.run "live"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest (differential ~jobs:1 ~count:60);
          QCheck_alcotest.to_alcotest (differential ~jobs:4 ~count:40);
          QCheck_alcotest.to_alcotest (cache_differential ~jobs:1 ~count:60);
          QCheck_alcotest.to_alcotest (cache_differential ~jobs:4 ~count:40);
          QCheck_alcotest.to_alcotest long_stream;
          Alcotest.test_case "duplicate add is rejected, nothing changes"
            `Quick test_duplicate_add_rejected;
          Alcotest.test_case "unlabelled add takes a free label" `Quick
            test_unlabelled_add;
          Alcotest.test_case "confirm of a non-includable tx is refused" `Quick
            test_confirm_not_includable;
          Alcotest.test_case "unlimited budget checks hit the cache" `Quick
            test_budget_cacheability;
        ] );
      ( "staleness",
        [
          Alcotest.test_case "session caches vs in-place state mutation" `Quick
            test_session_state_mutation;
          Alcotest.test_case "maximal worlds vs in-place state mutation" `Quick
            test_maximal_world_state_mutation;
          Alcotest.test_case "eviction invalidates memoized maximal worlds"
            `Quick test_evict_invalidates_maximal_worlds;
        ] );
      ( "feed",
        [
          Alcotest.test_case "feed tracks the node through add/evict/confirm"
            `Quick test_feed_tracks_node;
          Alcotest.test_case "feed absorbs a reorg" `Quick
            test_feed_survives_reorg;
        ] );
    ]
