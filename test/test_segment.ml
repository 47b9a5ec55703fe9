(* Columnar segments: value/relation round-trips, row-vs-columnar
   agreement on probes and solver verdicts, binary-vs-text snapshot
   equivalence, the view-cost contract (a view costs O(relations),
   whatever the base and pending sizes) and index-free probes for
   constants the base cannot hold. *)

module R = Relational
module V = R.Value
module Q = Bcquery
module Core = Bccore
module W = Workload

let schema3 = R.Schema.relation "S" [ "a"; "b"; "c" ]

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return V.Null;
        map (fun b -> V.Bool b) bool;
        map (fun i -> V.Int i) (int_range (-1000) 1000);
        map (fun f -> V.Float f) (float_range (-100.0) 100.0);
        map (fun i -> V.Str (Printf.sprintf "s%d" i)) (int_range 0 30);
      ])

let tuple_gen = QCheck.Gen.(map Array.of_list (list_repeat 3 value_gen))

let rows_arb =
  QCheck.make
    QCheck.Gen.(list_size (int_range 0 200) tuple_gen)
    ~print:(fun rows ->
      String.concat "; " (List.map R.Tuple.to_string rows))

let relation_of rows =
  let r = R.Relation.create schema3 in
  List.iter (fun t -> ignore (R.Relation.insert r t)) rows;
  r

let sorted_list r = List.sort compare (R.Relation.to_list r)

(* Every tuple a prepared source probe yields, in its order. *)
let probe_list (s : R.Source.t) rel cols keys =
  let acc = ref [] in
  (s.R.Source.prepare rel cols).R.Source.iter keys (fun t -> acc := t :: !acc);
  List.rev !acc

let segment_relation_roundtrip =
  QCheck.Test.make ~name:"Segment.of_relation |> to_relation is identity"
    ~count:200 rows_arb (fun rows ->
      let r = relation_of rows in
      let seg = R.Segment.of_relation r in
      R.Segment.length seg = R.Relation.cardinality r
      && sorted_list (R.Segment.to_relation schema3 seg) = sorted_list r)

let segment_binary_roundtrip =
  QCheck.Test.make ~name:"Segment serialize |> deserialize is identity"
    ~count:200 rows_arb (fun rows ->
      let seg = R.Segment.of_relation (relation_of rows) in
      let buf = Buffer.create 256 in
      R.Segment.serialize buf seg;
      let seg' = R.Segment.deserialize (Buffer.contents buf) (ref 0) in
      R.Segment.length seg' = R.Segment.length seg
      && List.init (R.Segment.length seg) (R.Segment.tuple seg)
         = List.init (R.Segment.length seg') (R.Segment.tuple seg'))

(* A column keeps what it was given, and its encoding is fixed by the
   values alone: all-Int and all-Float columns are unboxed, any other
   column is a dictionary in first-appearance order — whether the first
   non-Int value comes first, late or never (the builder holds Int
   payloads raw until then). *)
let column_builder_encoding =
  let gen =
    QCheck.Gen.(
      let* ints = list_size (int_bound 40) (map (fun i -> V.Int i) (int_range (-5) 5)) in
      let+ rest = list_size (int_bound 6) value_gen in
      ints @ rest)
  in
  QCheck.Test.make ~name:"Column builder: unboxed or first-appearance dictionary"
    ~count:300
    (QCheck.make ~print:(fun vs -> R.Tuple.to_string (Array.of_list vs)) gen)
    (fun vs ->
      let b = R.Segment.Builder.create ~arity:1 in
      List.iter (fun v -> R.Segment.Builder.add b [| v |]) vs;
      let seg = R.Segment.Builder.finish b in
      let buf = Buffer.create 256 in
      R.Segment.serialize buf seg;
      let blob = Buffer.contents buf in
      (* segment header (rows, columns), then the column's kind tag *)
      let kind = Char.code blob.[16] in
      let distinct =
        List.fold_left
          (fun acc v -> if List.exists (V.equal v) acc then acc else v :: acc)
          [] vs
        |> List.rev
      in
      let all p = vs <> [] && List.for_all p vs in
      let expected_kind =
        if all (function V.Int _ -> true | _ -> false) then 0
        else if all (function V.Float _ -> true | _ -> false) then 1
        else 2
      in
      let dictionary () =
        let pos = ref 25 in
        let nd = Int64.to_int (String.get_int64_le blob !pos) in
        pos := !pos + 8;
        List.init nd (fun _ -> V.read_binary blob pos)
      in
      List.for_all2 V.equal vs (List.init (R.Segment.length seg) (fun row -> R.Segment.get seg row 0))
      && kind = expected_kind
      && (kind <> 2 || List.equal V.equal (dictionary ()) distinct))

(* Probes answer exactly what a row-at-a-time filter over the same rows
   answers, for every single- and two-column bind drawn from the data
   (hits) and from values absent from it (dictionary misses). *)
let probe_agreement =
  QCheck.Test.make ~name:"Segment probes agree with row filtering" ~count:100
    rows_arb (fun rows ->
      let r = relation_of rows in
      let seg = R.Segment.of_relation r in
      let tuples = R.Relation.to_list r in
      let expected binds =
        List.filter
          (fun t ->
            List.for_all (fun (c, v) -> V.equal (R.Tuple.get t c) v) binds)
          tuples
        |> List.sort compare
      in
      let got binds =
        let binds = List.sort compare binds in
        let idx = R.Segment.index seg (List.map fst binds) in
        let keys = Array.of_list (List.map snd binds) in
        let acc = ref [] in
        R.Segment.probe_iter seg idx keys (fun t -> acc := t :: !acc);
        List.sort compare !acc
      in
      let probes =
        (match tuples with
        | t :: _ ->
            [
              [ (0, R.Tuple.get t 0) ];
              [ (1, R.Tuple.get t 1) ];
              [ (0, R.Tuple.get t 0); (2, R.Tuple.get t 2) ];
            ]
        | [] -> [])
        @ [ [ (0, V.Str "never-interned") ]; [ (1, V.Int 123456) ] ]
      in
      List.for_all (fun binds -> expected binds = got binds) probes)

(* Index permutations match a reference sort by (projection hash
   ascending, position descending), whatever the segment size — the
   radix digit width follows the row count, the order must not. Sizes
   range over every digit width, values over unboxed and dictionary
   columns. *)
let index_order_prop =
  QCheck.Test.make ~name:"Segment index order = sort by (hash, -position)"
    ~count:40 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n =
        match Random.State.int rng 4 with
        | 0 -> Random.State.int rng 300
        | 1 -> Random.State.int rng 5_000
        | 2 -> 200 + Random.State.int rng 40_000
        | _ -> 65_536 + Random.State.int rng 2_000
      in
      let spread = 1 + Random.State.int rng (max 1 n) in
      let b = R.Segment.Builder.create ~arity:3 in
      for _ = 1 to n do
        R.Segment.Builder.add b
          [|
            V.Int (Random.State.int rng spread);
            V.Str (Printf.sprintf "k%d" (Random.State.int rng 50));
            (if Random.State.bool rng then V.Int (Random.State.int rng 7)
             else V.Float 0.25);
          |]
      done;
      let seg = R.Segment.Builder.finish b in
      let cols =
        match List.filter (fun _ -> Random.State.bool rng) [ 0; 1; 2 ] with
        | [] -> [ Random.State.int rng 3 ]
        | l -> l
      in
      let hash row =
        List.fold_left
          (fun acc c -> (acc * 31) + V.hash (R.Segment.get seg row c))
          17 cols
        land max_int
      in
      let hashes = Array.init n hash in
      let reference =
        List.sort
          (fun a b ->
            match Int.compare hashes.(a) hashes.(b) with
            | 0 -> Int.compare b a
            | c -> c)
          (List.init n Fun.id)
      in
      Array.to_list (R.Segment.index_order (R.Segment.index seg cols)) = reference)

(* ------------------------------------------------------------------ *)
(* Row-built vs snapshot-restored databases must be indistinguishable
   to the solvers: same verdicts, same witness worlds, at jobs=1 and
   jobs=4. The original state lives in the mutable row tail; the
   restored one is pure columnar segments. *)

let binary_of db =
  match Core.Bcdb_file.of_binary_string (Core.Bcdb_file.to_binary_string db) with
  | Ok db' -> db'
  | Error msg -> Alcotest.failf "binary round-trip: %s" msg

let queries =
  [
    {| q() :- TxOut(t, s, "U8Pk", a). |};
    {| q() :- TxOut(t, s, "U7Pk", a). |};
    {| q() :- TxIn(p, s, k, a, n, g), TxOut(n, s2, "U4Pk", a2). |};
    {| q() :- TxOut(t, s, k, a), TxOut(t, s2, k2, a2), s != s2. |};
  ]

let test_row_columnar_verdicts () =
  let db = Fixtures.paper_db () in
  let db' = binary_of db in
  let sess = Core.Session.create db in
  let sess' = Core.Session.create db' in
  List.iter
    (fun qtext ->
      let q = Q.Parser.parse_exn ~catalog:Fixtures.catalog qtext in
      List.iter
        (fun jobs ->
          List.iter
            (fun (name, solve) ->
              let o = solve ~jobs sess q in
              let o' = solve ~jobs sess' q in
              Alcotest.(check bool)
                (Printf.sprintf "%s jobs=%d satisfied agree: %s" name jobs
                   qtext)
                o.Core.Dcsat.satisfied o'.Core.Dcsat.satisfied;
              Alcotest.(check (option (list int)))
                (Printf.sprintf "%s jobs=%d witness agree: %s" name jobs qtext)
                o.Core.Dcsat.witness_world o'.Core.Dcsat.witness_world)
            [
              ( "naive",
                fun ~jobs s q -> Result.get_ok (Core.Dcsat.naive ~jobs s q) );
              ("opt", fun ~jobs s q -> Result.get_ok (Core.Dcsat.opt ~jobs s q));
            ])
        [ 1; 4 ])
    queries

(* The store built over a restored database exposes the same relation
   contents, membership and per-bind lookups as the row-built one. *)
let test_row_columnar_store () =
  let db = Fixtures.paper_db () in
  let db' = binary_of db in
  let store = Core.Tagged_store.create db in
  let store' = Core.Tagged_store.create db' in
  Core.Tagged_store.all_visible store;
  Core.Tagged_store.all_visible store';
  let src = Core.Tagged_store.source store in
  let src' = Core.Tagged_store.source store' in
  List.iter
    (fun rel ->
      let name = rel.R.Schema.name in
      let sorted (s : R.Source.t) =
        Fixtures.read_all s name |> List.sort compare
      in
      let count (s : R.Source.t) = (s.R.Source.prepare name [||]).R.Source.count [||] in
      Alcotest.(check int) (name ^ " cardinality") (count src) (count src');
      Alcotest.(check bool) (name ^ " scan agrees") true (sorted src = sorted src');
      List.iter
        (fun t ->
          Alcotest.(check bool) (name ^ " mem agrees") true
            (src'.R.Source.mem name t);
          let l (s : R.Source.t) =
            probe_list s name [| 0 |] [| R.Tuple.get t 0 |] |> List.sort compare
          in
          Alcotest.(check bool) (name ^ " lookup agrees") true (l src = l src'))
        (sorted src))
    (R.Schema.relations Fixtures.catalog)

(* ------------------------------------------------------------------ *)
(* Binary and text snapshots describe the same database: restoring the
   binary form and rendering it as text reproduces the text render of
   the original, pending transactions and labels included. *)

let test_binary_text_equivalence () =
  let check_db label db =
    let db' = binary_of db in
    Alcotest.(check string)
      (label ^ ": text render survives the binary round-trip")
      (Core.Bcdb_file.to_string db)
      (Core.Bcdb_file.to_string db')
  in
  check_db "paper" (Fixtures.paper_db ());
  let sim = W.Generator.generate (W.Datasets.params W.Datasets.Small) in
  check_db "generated" (W.Generator.dataset sim ~contradictions:5 ())

let test_binary_validate () =
  let db = Fixtures.paper_db () in
  match
    Core.Bcdb_file.of_binary_string ~validate:true
      (Core.Bcdb_file.to_binary_string db)
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "validated restore failed: %s" msg

(* ------------------------------------------------------------------ *)
(* View cost: a view shares every table of its store and owns only its
   world and per-relation probe caches, so making one allocates
   O(relations) — the same few hundred bytes over a 300k-row base as
   over thousands of pending transactions. A view that copied the base
   or the pending segment would allocate megabytes. *)

let view_bytes store =
  let before = Gc.allocated_bytes () in
  let view = Core.Tagged_store.view store in
  let allocated = Gc.allocated_bytes () -. before in
  (view, allocated)

let pending_heavy_db txs =
  let rel = R.Schema.relation "S" [ "a"; "b" ] in
  Core.Bcdb.create_exn
    ~state:(R.Database.create (R.Schema.of_list [ rel ]))
    ~constraints:[]
    ~pending:(List.init txs (fun i -> [ ("S", R.Tuple.make [ V.Int i; V.Int (i mod 7) ]) ]))
    ()

let test_view_cost () =
  let p = { W.Huge.smoke with W.Huge.rows = 300_000 } in
  let store = Core.Tagged_store.create (W.Huge.generate p) in
  Core.Tagged_store.all_visible store;
  Alcotest.(check bool) "base is actually large (> 5 MB)" true
    (Core.Tagged_store.base_bytes store > 5_000_000);
  (* Warm one probe so lazily built structures don't bill to the view. *)
  ignore
    (probe_list (Core.Tagged_store.source store) "TxOut" [| 0 |] [| V.Int 0 |]);
  let view, allocated = view_bytes store in
  Alcotest.(check bool)
    (Printf.sprintf "view allocated %.0f bytes (< 8 KB)" allocated)
    true (allocated < 8192.0);
  Alcotest.(check int) "the view shares the base segments"
    (Core.Tagged_store.base_bytes store)
    (Core.Tagged_store.base_bytes view);
  Alcotest.(check bool) "the view sees base rows" true
    ((Core.Tagged_store.source view).R.Source.mem "TxOut"
       (R.Tuple.make [ V.Int 0; V.Int 0; V.Str "PK0"; V.Int 1 ]));
  (* Same relation count, 20k pending entries against 10: the same
     allocation, far below the pending segment's size. *)
  let small = Core.Tagged_store.create (pending_heavy_db 10) in
  let big = Core.Tagged_store.create (pending_heavy_db 20_000) in
  let _, small_bytes = view_bytes small and big_view, big_bytes = view_bytes big in
  Alcotest.(check (float 0.0)) "view cost independent of pending size"
    small_bytes big_bytes;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes, far below 20k pending entries" big_bytes)
    true (big_bytes < 8192.0);
  Core.Tagged_store.set_world_list big_view [ 19_999 ];
  Alcotest.(check int) "the view answers in its own world" 1
    (List.length (probe_list (Core.Tagged_store.source big_view) "S" [| 1 |] [| V.Int (19_999 mod 7) |]))

(* A probe whose key holds a constant no base dictionary holds matches
   no base row: it answers from the pending side alone and leaves the
   segment's index cache as it was, on every source. *)
let test_absent_constant_builds_no_index () =
  let db = binary_of (Fixtures.paper_db ()) in
  let store = Core.Tagged_store.create db in
  let seg = R.Database.to_segment db.Core.Bcdb.state "TxOut" in
  Alcotest.(check bool) "the base is one segment" true (R.Segment.length seg > 0);
  let before = R.Segment.cached_indexes seg in
  let absent = [| V.Str "PK-held-by-no-row" |] in
  List.iter
    (fun (name, src) ->
      let p = src.R.Source.prepare "TxOut" [| 2 |] in
      Alcotest.(check int) (name ^ ": count") 0 (p.R.Source.count absent);
      let rows = ref 0 in
      p.R.Source.iter absent (fun _ -> incr rows);
      Alcotest.(check int) (name ^ ": rows") 0 !rows)
    [
      ("world", Core.Tagged_store.source store);
      ("union", Core.Tagged_store.union_source store);
      ("base", Core.Tagged_store.base_source store);
    ];
  Alcotest.(check int) "index cache unchanged" before (R.Segment.cached_indexes seg);
  (* A constant the base holds still builds the index, once. *)
  let held = [| R.Segment.get seg 0 2 |] in
  let p = (Core.Tagged_store.base_source store).R.Source.prepare "TxOut" [| 2 |] in
  Alcotest.(check bool) "a held constant matches" true (p.R.Source.count held > 0);
  Alcotest.(check int) "and builds one index" (before + 1) (R.Segment.cached_indexes seg)

(* The streaming Huge generator's constraints hold by construction and
   its two queries land on the designed verdicts. *)
let test_huge_smoke_solves () =
  let db = W.Huge.generate W.Huge.smoke in
  Alcotest.(check bool) "Huge base state satisfies the constraints" true
    (R.Check.satisfies
       (R.Database.source db.Core.Bcdb.state)
       db.Core.Bcdb.constraints);
  let sess = Core.Session.create db in
  let hit = Result.get_ok (Core.Dcsat.opt sess (W.Huge.query_hit ())) in
  Alcotest.(check bool) "hit query violated in the marked world" false
    hit.Core.Dcsat.satisfied;
  let miss = Result.get_ok (Core.Dcsat.opt sess (W.Huge.query_miss ())) in
  Alcotest.(check bool) "miss query satisfied everywhere" true
    miss.Core.Dcsat.satisfied

let () =
  Alcotest.run "segment"
    [
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest segment_relation_roundtrip;
          QCheck_alcotest.to_alcotest segment_binary_roundtrip;
          QCheck_alcotest.to_alcotest column_builder_encoding;
          QCheck_alcotest.to_alcotest probe_agreement;
          QCheck_alcotest.to_alcotest index_order_prop;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "solver verdicts row vs columnar" `Quick
            test_row_columnar_verdicts;
          Alcotest.test_case "store probes row vs columnar" `Quick
            test_row_columnar_store;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "binary = text" `Quick test_binary_text_equivalence;
          Alcotest.test_case "validated restore" `Quick test_binary_validate;
        ] );
      ( "view",
        [
          Alcotest.test_case "cost" `Quick test_view_cost;
          Alcotest.test_case "absent constant builds no index" `Quick
            test_absent_constant_builds_no_index;
        ] );
      ( "huge",
        [ Alcotest.test_case "smoke preset solves" `Quick test_huge_smoke_solves ]
      );
    ]
