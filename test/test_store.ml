(* Tagged store: world switching, set semantics across origins, indexes
   under visibility, and agreement with materialized databases. *)

module R = Relational
module V = R.Value
module Core = Bccore
module Bitset = Bcgraph.Bitset

let abc = R.Schema.relation "Rel" [ "a"; "b" ]
let cat = R.Schema.of_list [ abc ]
let row a b = ("Rel", R.Tuple.make [ V.Int a; V.Int b ])

(* Every tuple a prepared probe yields, in its order. *)
let probe_order (p : R.Source.probe) keys =
  let acc = ref [] in
  p.R.Source.iter keys (fun t -> acc := t :: !acc);
  List.rev !acc

let probe_list (s : R.Source.t) rel cols keys =
  probe_order (s.R.Source.prepare rel cols) keys

let mk state pending =
  let db = R.Database.create cat in
  R.Database.insert_all db state;
  Core.Bcdb.create_exn ~state:db ~constraints:[] ~pending ()

let test_visibility () =
  let db = mk [ row 1 1 ] [ [ row 2 2 ]; [ row 3 3 ] ] in
  let store = Core.Tagged_store.create db in
  let src = Core.Tagged_store.source store in
  let count () = List.length (Fixtures.read_all src "Rel") in
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
    (List.length (Fixtures.read_all src "Rel"));
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
  let hits = probe_list src "Rel" [| 0 |] [| V.Int 5 |] in
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
      let sorted src = List.sort R.Tuple.compare (Fixtures.read_all src rel) in
      Alcotest.(check int)
        (rel ^ " cardinality agrees")
        (List.length (sorted src_db))
        (List.length (sorted src_store));
      Alcotest.(check bool)
        (rel ^ " contents agree")
        true
        (List.equal R.Tuple.equal (sorted src_db) (sorted src_store)))
    [ "TxOut"; "TxIn" ]

(* Two views of one store, each in its own world, with probes and
   world switches interleaved across them and the store itself: every
   answer — a prepared probe's rows in order, its count, a membership
   test — must be exactly what a fresh store answers after [set_world]
   of that view's world. Views share the store's tables (posting tables
   built by one are used by the other) but never its world. *)
let view_independence_prop =
  let cells = QCheck.Gen.(pair (int_bound 4) (int_bound 4)) in
  let gen =
    QCheck.Gen.(
      quad
        (list_size (int_bound 8) cells)
        (list_size (int_range 1 5) (list_size (int_range 1 3) cells))
        (pair (list_size (int_bound 5) (int_bound 4)) (list_size (int_bound 5) (int_bound 4)))
        (list_size (int_range 1 12)
           (quad bool (int_bound 3) cells (list_size (int_bound 3) (int_bound 4)))))
  in
  QCheck.Test.make ~name:"views answer as fresh stores in their worlds" ~count:200
    (QCheck.make gen)
    (fun (base, pending, (w1, w2), ops) ->
      let db =
        mk
          (List.map (fun (a, b) -> row a b) base)
          (List.map (List.map (fun (a, b) -> row a b)) pending)
      in
      let k = List.length pending in
      let world ids = List.sort_uniq Int.compare (List.filter (fun i -> i < k) ids) in
      let store = Core.Tagged_store.create db in
      let in_world ids =
        let fresh = Core.Tagged_store.create db in
        Core.Tagged_store.set_world_list fresh ids;
        fresh
      in
      let v1 = Core.Tagged_store.view store and v2 = Core.Tagged_store.view store in
      Core.Tagged_store.set_world_list v1 (world w1);
      Core.Tagged_store.set_world_list v2 (world w2);
      let ref1 = in_world (world w1) and ref2 = in_world (world w2) in
      let columns = [| [||]; [| 0 |]; [| 1 |]; [| 0; 1 |] |] in
      List.for_all
        (fun (first, c, (a, b), store_world) ->
          (* The store itself moves too; no view may notice. *)
          Core.Tagged_store.set_world_list store (world store_world);
          let v, r = if first then (v1, ref1) else (v2, ref2) in
          let cols = columns.(c) in
          let keys = Array.map (fun col -> V.Int (if col = 0 then a else b)) cols in
          let answer st =
            let src = Core.Tagged_store.source st in
            let p = src.R.Source.prepare "Rel" cols in
            ( probe_order p keys,
              p.R.Source.count keys,
              src.R.Source.mem "Rel" (R.Tuple.make [ V.Int a; V.Int b ]) )
          in
          answer v = answer r)
        ops)

(* A base row that pending transactions also write keeps its merged
   origins in the store's side table: [append_tx] extends them, [undo]
   restores them, and a view — which shares the table and refuses to
   append or undo itself — reads the same origins as its store. *)
let test_base_row_origins () =
  let db = mk [ row 1 1 ] [ [ row 1 1 ] ] in
  let store = Core.Tagged_store.create db in
  let origins st =
    Core.Tagged_store.origins st "Rel" (R.Tuple.make [ V.Int 1; V.Int 1 ])
  in
  let check msg want st = Alcotest.(check (list int)) msg want (origins st) in
  check "base and T0" [ -1; 0 ] store;
  let db1 = Core.Bcdb.with_pending db [ row 1 1 ] in
  let journal = Core.Tagged_store.append_tx store db1 in
  check "append adds T1" [ -1; 0; 1 ] store;
  Core.Tagged_store.undo store journal;
  check "undo restores" [ -1; 0 ] store;
  ignore (Core.Tagged_store.append_tx store db1 : Core.Tagged_store.journal);
  let view = Core.Tagged_store.view store in
  check "view after a kept append" [ -1; 0; 1 ] view;
  let db2 = Core.Bcdb.with_pending db1 [ row 1 1 ] in
  Alcotest.check_raises "a view refuses to append"
    (Invalid_argument "Tagged_store.append_tx: not on a view") (fun () ->
      ignore (Core.Tagged_store.append_tx view db2 : Core.Tagged_store.journal));
  let journal = Core.Tagged_store.append_tx store db2 in
  check "store appends T2" [ -1; 0; 1; 2 ] store;
  check "the view shares the table" [ -1; 0; 1; 2 ] view;
  Alcotest.check_raises "a view refuses to undo"
    (Invalid_argument "Tagged_store.undo: not on a view") (fun () ->
      Core.Tagged_store.undo view journal);
  Core.Tagged_store.undo store journal;
  check "undo restores both" [ -1; 0; 1 ] view

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
        Fixtures.read_all src "Rel" |> List.sort_uniq R.Tuple.compare
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

(* ------------------------------------------------------------------ *)
(* Prepared probes against reference filters. For every view, relation
   and bound-column subset, [iter] must yield exactly the tuples a
   filter over the view's rows yields — pending matches by descending
   position, then base matches by descending position; over no column,
   base rows then visible pending entries, both ascending — and [count]
   must equal the estimate the store's join ordering has always used,
   recomputed here from scratch. The reference rows come from the
   database and {!Core.Tagged_store.origins}, not from a probe. Handles
   are prepared once and must stay right across [append_tx] and
   [undo]. *)

let pair = R.Schema.relation "Pair" [ "a"; "b" ]
let wide = R.Schema.relation "Wide" [ "a"; "b"; "c"; "d"; "e" ]
let probe_cat = R.Schema.of_list [ pair; wide ]

(* Per-column value pools: unboxed Int columns, dictionary columns, and
   one mixed column. *)
let col_value rng rel c =
  let small () = Random.State.int rng 3 in
  match (rel, c) with
  | "Pair", 0 | "Wide", (0 | 2 | 3) -> V.Int (small ())
  | "Pair", 1 | "Wide", 1 -> V.Str (Printf.sprintf "s%d" (small ()))
  | _ ->
      if Random.State.bool rng then V.Int (small ())
      else V.Str (Printf.sprintf "s%d" (small ()))

let random_row rng =
  let schema = if Random.State.bool rng then pair else wide in
  let name = schema.R.Schema.name in
  (name, Array.init (R.Schema.arity schema) (col_value rng name))

let subsets n =
  List.init (1 lsl n) (fun mask ->
      Array.of_list
        (List.filter (fun c -> mask land (1 lsl c) <> 0) (List.init n Fun.id)))

let project (t : R.Tuple.t) cols = Array.map (fun c -> t.(c)) cols

let agrees cols keys (t : R.Tuple.t) =
  let ok = ref true in
  Array.iteri (fun i c -> if not (V.equal t.(c) keys.(i)) then ok := false) cols;
  !ok

let count_where p l = List.length (List.filter p l)

(* The base segment's estimate: rows whose projection hashes like the
   keys (collisions included), or 0 when a key cannot occur in its
   column — the wrong type for an all-Int column, or a value missing
   from a dictionary column. *)
let hash_of vals =
  Array.fold_left (fun acc v -> (acc * 31) + V.hash v) 17 vals land max_int

let base_width rows cols keys =
  let admits i c =
    let vals = List.map (fun (t : R.Tuple.t) -> t.(c)) rows in
    let all p = vals <> [] && List.for_all p vals in
    if all (function V.Int _ -> true | _ -> false) then
      match keys.(i) with V.Int _ -> true | _ -> false
    else if all (function V.Float _ -> true | _ -> false) then
      match keys.(i) with V.Float _ -> true | _ -> false
    else List.exists (V.equal keys.(i)) vals
  in
  let ok = ref true in
  Array.iteri (fun i c -> if not (admits i c) then ok := false) cols;
  if not !ok then 0
  else
    let h = hash_of keys in
    count_where (fun t -> hash_of (project t cols) = h) rows

(* The estimate a store's probe must report (it ignores the view). *)
let store_count ~base ~pending cols keys =
  let n = Array.length cols in
  if n = 0 then List.length base + List.length pending
  else
    let cols, keys =
      if n > 3 then ([| cols.(0) |], [| keys.(0) |]) else (cols, keys)
    in
    count_where (agrees cols keys) pending + base_width base cols keys

(* A plain database's: the tail's posting on the lowest bound column
   plus the segment's width over every bound column. *)
let database_count ~seg ~tail cols keys =
  if Array.length cols = 0 then List.length seg + List.length tail
  else
    count_where (agrees [| cols.(0) |] [| keys.(0) |]) tail
    + base_width seg cols keys

(* The reference rows of [rel] in store order: base rows by position,
   then pending entries by first contribution (transaction order), each
   listed once; and the pending entries the active world sees. *)
let reference_rows store rel =
  let db = Core.Tagged_store.db store in
  let base = ref [] in
  R.Database.iter_tuples db.Core.Bcdb.state rel (fun t -> base := t :: !base);
  let base = List.rev !base in
  let pending_all =
    Array.fold_left
      (fun acc (tx : Core.Pending.t) ->
        List.fold_left
          (fun acc (r, t) ->
            if r = rel && not (List.exists (R.Tuple.equal t) (base @ acc)) then
              acc @ [ t ]
            else acc)
          acc tx.Core.Pending.rows)
      [] db.Core.Bcdb.pending
  in
  let world = Core.Tagged_store.world store in
  let visible =
    List.filter
      (fun t ->
        List.exists
          (fun o -> o >= 0 && Bitset.mem world o)
          (Core.Tagged_store.origins store rel t))
      pending_all
  in
  (base, pending_all, visible)

(* Key arrays for one column subset: projections of present tuples, and
   values absent from every column (dictionary and type misses). *)
let keys_for rng tuples cols =
  let present = List.filteri (fun i _ -> i < 6) tuples in
  let miss () =
    Array.map
      (fun _ ->
        match Random.State.int rng 3 with
        | 0 -> V.Int 99
        | 1 -> V.Str "absent"
        | _ -> V.Float 0.5)
      cols
  in
  List.map (fun t -> project t cols) present @ [ miss (); miss () ]

let store_probes_prop =
  QCheck.Test.make ~name:"Tagged_store probes = reference filter, old estimate"
    ~count:60 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let state = R.Database.create probe_cat in
      List.iter
        (fun _ ->
          let rel, t = random_row rng in
          ignore (R.Database.insert state rel t))
        (List.init (Random.State.int rng 25) Fun.id);
      let tx () = List.init (1 + Random.State.int rng 4) (fun _ -> random_row rng) in
      let pending = List.init (1 + Random.State.int rng 5) (fun _ -> tx ()) in
      let db = Core.Bcdb.create_exn ~state ~constraints:[] ~pending () in
      let store = Core.Tagged_store.create db in
      let k = Core.Tagged_store.tx_count store in
      Core.Tagged_store.set_world_list store
        (List.filter (fun _ -> Random.State.bool rng) (List.init k Fun.id));
      let views =
        [
          Core.Tagged_store.source store;
          Core.Tagged_store.union_source store;
          Core.Tagged_store.base_source store;
        ]
      in
      (* Every handle, prepared once up front. *)
      let handles =
        List.concat_map
          (fun (src : R.Source.t) ->
            List.concat_map
              (fun (schema : R.Schema.relation) ->
                let rel = schema.R.Schema.name in
                List.map
                  (fun cols -> (src, rel, cols, src.R.Source.prepare rel cols))
                  (subsets (R.Schema.arity schema)))
              [ pair; wide ])
          views
      in
      let check () =
        List.for_all
          (fun ((src : R.Source.t), rel, cols, probe) ->
            let base, pending_all, visible = reference_rows store rel in
            let visible =
              if src == Core.Tagged_store.base_source store then []
              else if src == Core.Tagged_store.union_source store then pending_all
              else visible
            in
            let expected keys =
              if Array.length cols = 0 then base @ visible
              else
                List.rev (List.filter (agrees cols keys) visible)
                @ List.rev (List.filter (agrees cols keys) base)
            in
            src.R.Source.prepare rel cols == probe
            && List.for_all
                 (fun keys ->
                   probe_order probe keys = expected keys
                   && probe.R.Source.count keys
                      = store_count ~base ~pending:pending_all cols keys)
                 (keys_for rng (base @ pending_all) cols))
          handles
      in
      let before = check () in
      let db' = Core.Bcdb.with_pending db (tx ()) in
      let journal = Core.Tagged_store.append_tx store db' in
      let appended = check () in
      Core.Tagged_store.set_world_list store
        (k :: List.filter (fun _ -> Random.State.bool rng) (List.init k Fun.id));
      let visible_new = check () in
      Core.Tagged_store.undo store journal;
      before && appended && visible_new && check ())

let database_probes_prop =
  QCheck.Test.make ~name:"Database probes = reference filter, old estimate"
    ~count:60 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rows () =
        List.init (Random.State.int rng 20) (fun _ -> random_row rng)
      in
      let of_rel rel l =
        List.filter_map (fun (r, t) -> if r = rel then Some t else None) l
      in
      (* Half the relations' rows in an immutable segment, the rest in
         the mutable tail. *)
      let seg_rows = rows () in
      let segs =
        List.map
          (fun (schema : R.Schema.relation) ->
            let name = schema.R.Schema.name in
            let r = R.Relation.create schema in
            List.iter (fun t -> ignore (R.Relation.insert r t)) (of_rel name seg_rows);
            (name, R.Segment.of_relation r))
          [ pair; wide ]
      in
      let plain = R.Database.create probe_cat in
      let columnar = R.Database.of_segments probe_cat segs in
      let tail_rows = rows () in
      R.Database.insert_all plain (seg_rows @ tail_rows);
      R.Database.insert_all columnar tail_rows;
      List.for_all
        (fun (db, with_seg) ->
          let src = R.Database.source db in
          List.for_all
            (fun (schema : R.Schema.relation) ->
              let rel = schema.R.Schema.name in
              let seg =
                match (with_seg, R.Database.segment db rel) with
                | true, Some s -> List.init (R.Segment.length s) (R.Segment.tuple s)
                | _ -> []
              in
              let tail =
                R.Relation.to_list (R.Database.relation db rel)
              in
              List.for_all
                (fun cols ->
                  let probe = src.R.Source.prepare rel cols in
                  List.for_all
                    (fun keys ->
                      let expected =
                        if Array.length cols = 0 then seg @ tail
                        else
                          List.rev (List.filter (agrees cols keys) seg)
                          @ List.rev (List.filter (agrees cols keys) tail)
                      in
                      probe_order probe keys = expected
                      && probe.R.Source.count keys
                         = database_count ~seg ~tail cols keys)
                    (keys_for rng (seg @ tail) cols))
                (subsets (R.Schema.arity schema)))
            [ pair; wide ])
        [ (plain, false); (columnar, true) ])

(* --- the store build: one insertion step ------------------------------

   [Tagged_store.create] over a database must be the store that
   [append_tx] grows from the same database with no pending transaction,
   one transaction at a time: the same origins for every row, and the
   same rows in the same order from every probe of every view, in a
   shared world and in the rows a world switch adds. Origins are also
   checked against a reference built from the rows, since both builds
   share the step. The instances mix rows several transactions write,
   pending rows the base also holds, values no base dictionary holds,
   and empty bases. *)

let fresh_value rng c =
  match Random.State.int rng 3 with
  | 0 -> V.Int (50 + c)
  | 1 -> V.Str (Printf.sprintf "new%d" (Random.State.int rng 3))
  | _ -> V.Float 0.5

(* [t] with one column holding a value no base row has. *)
let with_fresh rng (t : R.Tuple.t) =
  let t = Array.copy t in
  let c = Random.State.int rng (Array.length t) in
  t.(c) <- fresh_value rng c;
  t

let build_row rng ~base ~earlier =
  match Random.State.int rng 4 with
  | 0 when base <> [] -> List.nth base (Random.State.int rng (List.length base))
  | 1 when earlier <> [] ->
      List.nth earlier (Random.State.int rng (List.length earlier))
  | 2 ->
      let rel, t = random_row rng in
      (rel, with_fresh rng t)
  | _ -> random_row rng

let reference_origins (db : Core.Bcdb.t) rel t =
  let in_state = ref false in
  R.Database.iter_tuples db.Core.Bcdb.state rel (fun u ->
      if R.Tuple.equal u t then in_state := true);
  (if !in_state then [ -1 ] else [])
  @ List.filter_map
      (fun (tx : Core.Pending.t) ->
        if List.exists (fun (r, u) -> r = rel && R.Tuple.equal u t) tx.Core.Pending.rows
        then Some tx.Core.Pending.id
        else None)
      (Array.to_list db.Core.Bcdb.pending)

(* Each column admits a value iff it could occur there: any Int (Float)
   in an all-Int (all-Float) column, otherwise a value the column
   holds. *)
let admitted rows (t : R.Tuple.t) =
  let col c =
    let vals = List.map (fun (u : R.Tuple.t) -> u.(c)) rows in
    let all p = vals <> [] && List.for_all p vals in
    if all (function V.Int _ -> true | _ -> false) then
      match t.(c) with V.Int _ -> true | _ -> false
    else if all (function V.Float _ -> true | _ -> false) then
      match t.(c) with V.Float _ -> true | _ -> false
    else List.exists (V.equal t.(c)) vals
  in
  let ok = ref true in
  Array.iteri (fun c _ -> if not (col c) then ok := false) t;
  !ok

let store_build_prop =
  QCheck.Test.make ~name:"Tagged_store.create = append_tx from zero pending"
    ~count:150 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let state = R.Database.create probe_cat in
      let nbase = if Random.State.int rng 4 = 0 then 0 else Random.State.int rng 15 in
      let base_rows = List.init nbase (fun _ -> random_row rng) in
      R.Database.insert_all state base_rows;
      let earlier = ref [] in
      let pending =
        List.init (Random.State.int rng 8) (fun _ ->
            let rows =
              List.init (1 + Random.State.int rng 4) (fun _ ->
                  build_row rng ~base:base_rows ~earlier:!earlier)
            in
            earlier := !earlier @ rows;
            rows)
      in
      let labels = List.mapi (fun i _ -> Printf.sprintf "L%d" i) pending in
      let db = Core.Bcdb.create_unchecked ~state ~constraints:[] ~pending ~labels () in
      let built = Core.Tagged_store.create db in
      let grown =
        Core.Tagged_store.create
          (Core.Bcdb.create_unchecked ~state ~constraints:[] ~pending:[] ())
      in
      List.iteri
        (fun i rows ->
          let db' =
            Core.Bcdb.with_pending (Core.Tagged_store.db grown) ~label:(List.nth labels i) rows
          in
          ignore (Core.Tagged_store.append_tx grown db' : Core.Tagged_store.journal))
        pending;
      let k = List.length pending in
      let world () = List.filter (fun _ -> Random.State.bool rng) (List.init k Fun.id) in
      let w0 = world () and w1 = world () in
      List.iter (fun st -> Core.Tagged_store.set_world_list st w0) [ built; grown ];
      let prev = Core.Tagged_store.world built in
      let rels = [ pair; wide ] in
      let rows_of rel l = List.filter_map (fun (r, t) -> if r = rel then Some t else None) l in
      let probe_tuples rel =
        let own = rows_of rel (base_rows @ !earlier) in
        own @ List.map (with_fresh rng) own
      in
      let same_origins =
        List.for_all
          (fun (schema : R.Schema.relation) ->
            let rel = schema.R.Schema.name in
            List.for_all
              (fun t ->
                let o = Core.Tagged_store.origins built rel t in
                o = Core.Tagged_store.origins grown rel t && o = reference_origins db rel t)
              (probe_tuples rel))
          rels
      in
      let views st =
        Core.Tagged_store.
          [ source st; union_source st; base_source st ]
      in
      let same_probes () =
        List.for_all2
          (fun (a : R.Source.t) (b : R.Source.t) ->
            List.for_all
              (fun (schema : R.Schema.relation) ->
                let rel = schema.R.Schema.name in
                List.for_all
                  (fun cols ->
                    let pa = a.R.Source.prepare rel cols and pb = b.R.Source.prepare rel cols in
                    List.for_all
                      (fun keys ->
                        probe_order pa keys = probe_order pb keys
                        && pa.R.Source.count keys = pb.R.Source.count keys)
                      (keys_for rng (probe_tuples rel) cols))
                  (subsets (R.Schema.arity schema)))
              rels)
          (views built) (views grown)
      in
      let probes_w0 = same_probes () in
      List.iter (fun st -> Core.Tagged_store.set_world_list st w1) [ built; grown ];
      let added st =
        let d = Core.Tagged_store.world_delta st ~prev in
        List.map (fun (r : R.Schema.relation) -> Lazy.force d.Core.Tagged_store.added r.R.Schema.name) rels
      in
      (* [Segment.find] = a linear scan, and a tuple some column does not
         admit is refused before the whole-tuple index exists. *)
      let find_ok =
        List.for_all
          (fun (schema : R.Schema.relation) ->
            let rel = schema.R.Schema.name in
            let seg = R.Database.to_segment state rel in
            let rows = List.init (R.Segment.length seg) (R.Segment.tuple seg) in
            let tuples = probe_tuples rel in
            let refused = List.filter (fun t -> not (admitted rows t)) tuples in
            List.for_all (fun t -> R.Segment.find seg t = -1) refused
            && (not (R.Segment.whole_built seg))
            && List.for_all
                 (fun t ->
                   let rec linear i = function
                     | [] -> -1
                     | u :: rest -> if R.Tuple.equal t u then i else linear (i + 1) rest
                   in
                   R.Segment.find seg t = linear 0 rows)
                 tuples)
          rels
      in
      same_origins && probes_w0 && same_probes () && added built = added grown && find_ok)

let () =
  Alcotest.run "store"
    [
      ( "tagged-store",
        [
          Alcotest.test_case "visibility" `Quick test_visibility;
          Alcotest.test_case "set semantics" `Quick test_set_semantics_across_origins;
          Alcotest.test_case "indexed lookup" `Quick test_lookup_respects_visibility;
          Alcotest.test_case "materialize" `Quick test_to_database_matches;
          QCheck_alcotest.to_alcotest view_independence_prop;
          Alcotest.test_case "base-row origins across append, undo, view"
            `Quick test_base_row_origins;
          QCheck_alcotest.to_alcotest store_scan_prop;
        ] );
      ( "probes",
        [
          QCheck_alcotest.to_alcotest store_probes_prop;
          QCheck_alcotest.to_alcotest database_probes_prop;
          QCheck_alcotest.to_alcotest store_build_prop;
        ] );
    ]
