module R = Relational
module Bitset = Bcgraph.Bitset

module Vtbl = Hashtbl.Make (struct
  type t = R.Value.t

  let equal = R.Value.equal
  let hash = R.Value.hash
end)

type entry = { tuple : R.Tuple.t; origins : int array }

(* The store is segmented per relation:

   - the {e base segment} holds every tuple contributed by the base
     state, as one immutable columnar {!R.Segment.t}. Base tuples are
     visible in *every* world, so the segment — column payloads and
     hash indexes alike — is shared zero-copy across clones; cloning a
     store never touches base data.
     Indexes are built on demand under the segment's own lock and
     memoized per store, so steady-state probes never touch the lock.
     The rare base tuple that is *also* written by pending transactions
     carries its merged origin set in the sparse [b_extra] side table.

   - the {e pending segment} holds tuples contributed only by pending
     transactions; their visibility depends on the active world. It is
     private to each store. Instead of re-testing origin sets per probe,
     each pending position carries a visible-origin refcount
     ([viscount]) maintained incrementally by world *deltas*: switching
     worlds flips only the transactions whose membership changed
     (O(|delta|)), not O(k). A store-wide [epoch] stamps each world;
     per-posting filtered-visibility caches are valid only for the epoch
     they were computed at, which is the entire invalidation rule. *)

type base = {
  b_seg : R.Segment.t;  (* shared: immutable columns + lock-guarded index cache *)
  b_extra : (int, int array) Hashtbl.t;
      (* base position -> merged origins [|-1; tx...|]; only positions
         some pending transaction also contributes. Immutable after
         [create], hence shared. *)
}

type posting = {
  mutable all : int list;  (* pending positions, descending *)
  mutable count : int;  (* memoized [List.length all] *)
  mutable cepoch : int;  (* epoch [cvis] was computed at; -1 = never *)
  mutable cvis : int list;  (* visible subset of [all] at [cepoch] *)
}

type rel_store = {
  base : base;  (* shared with clones *)
  bmemo : (int list, R.Segment.index) Hashtbl.t;
      (* per-store memo of base indexes already fetched: lock-free *)
  mutable entries : entry array;  (* pending segment, valid up to [len] *)
  mutable len : int;
  by_tuple : int R.Tuple.Tbl.t;  (* pending tuples only *)
  indexes : (int, posting Vtbl.t) Hashtbl.t;
  composite : (int list, posting R.Tuple.Tbl.t) Hashtbl.t;
      (** Multi-column hash indexes, keyed by the (sorted) column list;
          the inner table maps a projection to pending positions. Built
          on demand for the column sets the evaluator actually probes. *)
  by_origin : (int, int list) Hashtbl.t;  (* tx id -> pending positions *)
  mutable viscount : int array;  (* per pending position *)
  overlay : (int, int array) Hashtbl.t;
      (** Base-position -> origin set extended by an outstanding dry-run
          journal; affects {!origins} only (base rows stay visible). *)
  probes : (int array, R.Source.probe) Hashtbl.t array;
      (** Prepared probes per view ([World], [Union], [Base]) and bound
          columns. They hold this store's pending tables, so clones start
          empty. *)
}

module Smap = Map.Make (String)

type t = {
  uid : int;  (* unique per store value; hash key for weak registries *)
  mutable db : Bcdb.t;
  rels : rel_store Smap.t;
  mutable k : int;
  mutable visible : Bitset.t;
  mutable epoch : int;
  mutable obs : Obs.t;
  mutable views : R.Source.t array;
      (* the [World], [Union] and [Base] sources, built once per store *)
  mutable checker : R.Check.checker option;
      (* the constraints prepared on the [Base] view, on first use *)
}

(* Every store — created or cloned — gets a fresh uid, so a
   weak table keyed by physical store identity can hash without walking
   the (deep, mutable) structure. *)
let uid_counter = Atomic.make 0
let fresh_uid () = Atomic.fetch_and_add uid_counter 1

let base_origin = -1

(* Position of [tuple] in the base segment, or -1. *)
let base_find bs tuple = R.Segment.find bs.b_seg tuple

let fresh_rel base entries =
  let np = Array.length entries in
  let by_tuple = R.Tuple.Tbl.create (max 16 np) in
  Array.iteri (fun i (e : entry) -> R.Tuple.Tbl.replace by_tuple e.tuple i) entries;
  let by_origin = Hashtbl.create (max 16 np) in
  Array.iteri
    (fun i (e : entry) ->
      Array.iter
        (fun o ->
          if o >= 0 then
            Hashtbl.replace by_origin o
              (i :: Option.value (Hashtbl.find_opt by_origin o) ~default:[]))
        e.origins)
    entries;
  {
    base;
    bmemo = Hashtbl.create 4;
    entries;
    len = np;
    by_tuple;
    indexes = Hashtbl.create 4;
    composite = Hashtbl.create 4;
    by_origin;
    viscount = Array.make (max 1 np) 0;
    overlay = Hashtbl.create 4;
    probes = Array.init 3 (fun _ -> Hashtbl.create 8);
  }

let build_rel seg rows =
  (* [seg]: the relation's base state, already columnar. [rows]:
     (origin, tuple) pending contributions in transaction order.
     Pending tuples that also sit in the base merge their origins into
     the sparse [b_extra] table (the base row is visible everywhere
     anyway); the rest are deduplicated into pending entries — rows of
     one origin arrive together, so deduplication is a head check. *)
  let b_extra = Hashtbl.create 4 in
  let scratch = R.Tuple.Tbl.create (max 64 (List.length rows)) in
  let order = ref [] in
  let bs = { b_seg = seg; b_extra } in
  List.iter
    (fun (origin, tuple) ->
      match base_find bs tuple with
      | bpos when bpos >= 0 ->
          let prev =
            Option.value (Hashtbl.find_opt b_extra bpos) ~default:[| base_origin |]
          in
          if not (Array.exists (fun o -> o = origin) prev) then
            Hashtbl.replace b_extra bpos (Array.append prev [| origin |])
      | _ -> (
          match R.Tuple.Tbl.find_opt scratch tuple with
          | Some origins -> (
              match !origins with
              | last :: _ when last = origin -> ()
              | _ -> origins := origin :: !origins)
          | None ->
              R.Tuple.Tbl.replace scratch tuple (ref [ origin ]);
              order := tuple :: !order))
    rows;
  let pending =
    Array.of_list
      (List.rev_map
         (fun tuple ->
           let origins = !(R.Tuple.Tbl.find scratch tuple) in
           { tuple; origins = Array.of_list (List.sort_uniq Int.compare origins) })
         !order)
  in
  fresh_rel bs pending

let create_store (db : Bcdb.t) =
  let catalog = R.Database.catalog db.Bcdb.state in
  let rows_by_rel = Hashtbl.create 8 in
  let push rel row =
    let prev = Option.value (Hashtbl.find_opt rows_by_rel rel) ~default:[] in
    Hashtbl.replace rows_by_rel rel (row :: prev)
  in
  Array.iter
    (fun (tx : Pending.t) ->
      List.iter (fun (rel, tuple) -> push rel (tx.Pending.id, tuple)) tx.Pending.rows)
    db.Bcdb.pending;
  let rels =
    List.fold_left
      (fun acc schema ->
        let rel = schema.R.Schema.name in
        (* The base state reaches the store columnar: zero-cost when the
           database was restored from a binary snapshot (all segment),
           one streaming encode when it was built row by row. *)
        let seg = R.Database.to_segment db.Bcdb.state rel in
        let rows =
          List.rev (Option.value (Hashtbl.find_opt rows_by_rel rel) ~default:[])
        in
        Smap.add rel (build_rel seg rows) acc)
      Smap.empty (R.Schema.relations catalog)
  in
  let k = Array.length db.Bcdb.pending in
  {
    uid = fresh_uid ();
    db;
    rels;
    k;
    visible = Bitset.create k;
    epoch = 0;
    obs = Obs.null;
    views = [||];
    checker = None;
  }

let clone_rel rs =
  let copy_postings tbl =
    let out = Vtbl.create (max 4 (Vtbl.length tbl)) in
    Vtbl.iter
      (fun key (p : posting) ->
        Vtbl.replace out key
          { all = p.all; count = p.count; cepoch = p.cepoch; cvis = p.cvis })
      tbl;
    out
  in
  let copy_composite tbl =
    let out = R.Tuple.Tbl.create (max 4 (R.Tuple.Tbl.length tbl)) in
    R.Tuple.Tbl.iter
      (fun key (p : posting) ->
        R.Tuple.Tbl.replace out key
          { all = p.all; count = p.count; cepoch = p.cepoch; cvis = p.cvis })
      tbl;
    out
  in
  let copy_outer copy tbl =
    let out = Hashtbl.create (max 4 (Hashtbl.length tbl)) in
    Hashtbl.iter (fun key inner -> Hashtbl.replace out key (copy inner)) tbl;
    out
  in
  {
    base = rs.base;  (* shared: immutable segment, immutable b_extra *)
    bmemo = Hashtbl.copy rs.bmemo;
    entries = Array.copy rs.entries;
    len = rs.len;
    by_tuple = R.Tuple.Tbl.copy rs.by_tuple;
    indexes = copy_outer copy_postings rs.indexes;
    composite = copy_outer copy_composite rs.composite;
    by_origin = Hashtbl.copy rs.by_origin;
    viscount = Array.copy rs.viscount;
    overlay = Hashtbl.copy rs.overlay;
    probes = Array.init 3 (fun _ -> Hashtbl.create 8);
  }

let clone_store t =
  {
    uid = fresh_uid ();
    db = t.db;
    rels = Smap.map clone_rel t.rels;
    k = t.k;
    visible = Bitset.copy t.visible;
    epoch = t.epoch;
    obs = t.obs;
    views = [||];
    checker = None;
  }

let db t = t.db
let uid t = t.uid
let tx_count t = t.k
let state_generation t = R.Database.generation t.db.Bcdb.state
let set_obs t obs = t.obs <- obs
let world t = Bitset.copy t.visible

let base_bytes t =
  Smap.fold (fun _ rs acc -> acc + R.Segment.bytes rs.base.b_seg) t.rels 0

(* Switch to [vis] (a fresh bitset owned by the store) by flipping only
   the transactions whose membership changed. A no-op switch keeps the
   epoch, so posting caches survive save/restore pairs. *)
let apply_world t vis =
  if not (Bitset.equal vis t.visible) then begin
    let old = t.visible in
    Smap.iter
      (fun _ rs ->
        let flip sign id =
          match Hashtbl.find_opt rs.by_origin id with
          | None -> ()
          | Some ps ->
              List.iter
                (fun p -> rs.viscount.(p) <- rs.viscount.(p) + sign)
                ps
        in
        Bitset.iter_diff (flip (-1)) old vis;
        Bitset.iter_diff (flip 1) vis old)
      t.rels;
    t.visible <- vis;
    t.epoch <- t.epoch + 1;
    if Obs.enabled t.obs then Obs.add t.obs "store.epoch_switch" 1
  end

let set_world t vis =
  if Bitset.capacity vis <> t.k then
    invalid_arg "Tagged_store.set_world: capacity mismatch";
  apply_world t (Bitset.copy vis)

let set_world_list t ids = apply_world t (Bitset.of_list t.k ids)
let all_visible t = apply_world t (Bitset.full t.k)
let base_only t = apply_world t (Bitset.create t.k)

let rel_store t name =
  match Smap.find_opt name t.rels with
  | Some rs -> rs
  | None -> invalid_arg ("Tagged_store: unknown relation " ^ name)

(* --- world deltas (incremental evaluation support) --- *)

type world_delta = {
  added_txs : int;
  removed_txs : int;
  added : (string -> R.Tuple.t list) Lazy.t;
}

let world_delta t ~prev =
  if Bitset.capacity prev <> t.k then
    invalid_arg "Tagged_store.world_delta: capacity mismatch";
  let cur = t.visible in
  let added_ids = ref [] and added_txs = ref 0 and removed_txs = ref 0 in
  Bitset.iter_diff
    (fun id ->
      added_ids := id :: !added_ids;
      incr added_txs)
    cur prev;
  Bitset.iter_diff (fun _ -> incr removed_txs) prev cur;
  let added_ids = !added_ids in
  let added =
    lazy
      ((* A pending tuple is {e newly visible} iff some added transaction
          contributes it and none of its origins was in [prev] (base rows
          never reach the pending segment, so base contributions don't
          mask anything here). Positions contributed by two added
          transactions are deduplicated per relation. *)
       let per_rel = Hashtbl.create 8 in
       Smap.iter
         (fun name rs ->
           let seen = Hashtbl.create 16 in
           let acc = ref [] in
           List.iter
             (fun id ->
               match Hashtbl.find_opt rs.by_origin id with
               | None -> ()
               | Some ps ->
                   List.iter
                     (fun p ->
                       if not (Hashtbl.mem seen p) then begin
                         Hashtbl.replace seen p ();
                         let e = rs.entries.(p) in
                         if
                           not
                             (Array.exists
                                (fun o -> o >= 0 && Bitset.mem prev o)
                                e.origins)
                         then acc := e.tuple :: !acc
                       end)
                     ps)
             added_ids;
           if !acc <> [] then Hashtbl.replace per_rel name !acc)
         t.rels;
       fun name -> Option.value (Hashtbl.find_opt per_rel name) ~default:[])
  in
  { added_txs = !added_txs; removed_txs = !removed_txs; added }

(* --- base-segment indexes: built once under the segment's lock,
   published immutable, memoized per store --- *)

let base_index rs cols =
  match Hashtbl.find_opt rs.bmemo cols with
  | Some idx -> idx
  | None ->
      let idx = R.Segment.index rs.base.b_seg cols in
      Hashtbl.replace rs.bmemo cols idx;
      idx

(* --- pending-segment indexes (private, incremental) --- *)

let ensure_index rs col =
  match Hashtbl.find_opt rs.indexes col with
  | Some idx -> idx
  | None ->
      let idx = Vtbl.create (max 16 rs.len) in
      for i = 0 to rs.len - 1 do
        let v = rs.entries.(i).tuple.(col) in
        match Vtbl.find_opt idx v with
        | Some p ->
            p.all <- i :: p.all;
            p.count <- p.count + 1
        | None -> Vtbl.replace idx v { all = [ i ]; count = 1; cepoch = -1; cvis = [] }
      done;
      Hashtbl.replace rs.indexes col idx;
      idx

let ensure_composite rs cols =
  match Hashtbl.find_opt rs.composite cols with
  | Some idx -> idx
  | None ->
      let idx = R.Tuple.Tbl.create (max 16 rs.len) in
      for i = 0 to rs.len - 1 do
        let key = R.Tuple.project rs.entries.(i).tuple cols in
        match R.Tuple.Tbl.find_opt idx key with
        | Some p ->
            p.all <- i :: p.all;
            p.count <- p.count + 1
        | None ->
            R.Tuple.Tbl.replace idx key { all = [ i ]; count = 1; cepoch = -1; cvis = [] }
      done;
      Hashtbl.replace rs.composite cols idx;
      idx

(* The posting a probe finds when its key has none; never mutated. *)
let no_posting = { all = []; count = 0; cepoch = -1; cvis = [] }

let find_single tbl v =
  match Vtbl.find tbl v with p -> p | exception Not_found -> no_posting

let find_composite tbl keys =
  match R.Tuple.Tbl.find tbl keys with p -> p | exception Not_found -> no_posting

(* Visible pending positions of a posting, cached per epoch. *)
let posting_visible t rs (p : posting) =
  if p.cepoch <> t.epoch then begin
    p.cvis <- List.filter (fun i -> rs.viscount.(i) > 0) p.all;
    p.cepoch <- t.epoch;
    if Obs.enabled t.obs then Obs.add t.obs "store.vis_miss" 1
  end
  else if Obs.enabled t.obs then Obs.add t.obs "store.vis_hit" 1;
  p.cvis

(* Which pending positions a view sees: those of the active world
   ({!source}), every one ({!union_source}, the instance [R ∪ T]) or
   none ({!base_source}, [R] alone). The two fixed views walk posting
   [all] lists directly, so a probe through them never touches
   [visible], [viscount] or [epoch] — the posting caches of the active
   world survive it. Every view yields the same order (pending matches
   by descending position, then base matches), so a fixed view answers
   exactly what {!source} answers after {!all_visible}/{!base_only}. *)
type view = World | Union | Base

let view_slot = function World -> 0 | Union -> 1 | Base -> 2

let pend_visible view rs i =
  match view with World -> rs.viscount.(i) > 0 | Union -> true | Base -> false

let scan t view name =
  let rs = rel_store t name in
  let np = match view with Base -> 0 | World | Union -> rs.len in
  let rec pend i () =
    if i >= np then Seq.Nil
    else if pend_visible view rs i then Seq.Cons (rs.entries.(i).tuple, pend (i + 1))
    else pend (i + 1) ()
  in
  Seq.append (R.Segment.tuple_seq rs.base.b_seg) (pend 0)

let rec emit rs f = function
  | [] -> ()
  | i :: rest ->
      f rs.entries.(i).tuple;
      emit rs f rest

(* Resolved on first use, then kept: a probe the evaluator only costs
   never builds the indexes only iterating needs, and vice versa. *)
let memo f =
  let cell = ref None in
  fun () ->
    match !cell with
    | Some x -> x
    | None ->
        let x = f () in
        cell := Some x;
        x

(* The probe of one view, relation and bound-column set. [iter] yields
   pending matches (descending position), then base matches (descending
   position). [count] is world-independent by design: memoized pending
   posting counts plus the base hash-range width (an upper bound —
   collisions are not filtered out, which is fine for a cost estimate
   and identical across every store sharing the segment, so the primary
   store and its replicas pick the same join orders). With more than 3
   bound columns it estimates from the lowest column alone; iterating
   goes through an exact composite posting table instead, so no other
   single-column index is built. The pending tables are the store's
   own, maintained in place by {!append_tx}/{!undo}, so the handle
   outlives both. *)
let make_probe t view rs cols =
  let seg = rs.base.b_seg in
  let n = Array.length cols in
  if n = 0 then
    {
      R.Source.count = (fun _ -> R.Segment.length seg + rs.len);
      iter =
        (fun _ f ->
          for row = 0 to R.Segment.length seg - 1 do
            f (R.Segment.tuple seg row)
          done;
          if view <> Base then
            for i = 0 to rs.len - 1 do
              if pend_visible view rs i then f rs.entries.(i).tuple
            done);
    }
  else
    let col_list = Array.to_list cols in
    let single = memo (fun () -> ensure_index rs cols.(0)) in
    let pend =
      if n = 1 then fun keys -> find_single (single ()) keys.(0)
      else
        let composite = memo (fun () -> ensure_composite rs col_list) in
        fun keys -> find_composite (composite ()) keys
    in
    let base = memo (fun () -> base_index rs col_list) in
    let count =
      if n <= 3 then fun keys ->
        (pend keys).count + R.Segment.probe_count seg (base ()) keys
      else
        let base_first = memo (fun () -> base_index rs [ cols.(0) ]) in
        let first = [| R.Value.Null |] in
        fun keys ->
          first.(0) <- keys.(0);
          (find_single (single ()) keys.(0)).count
          + R.Segment.probe_count seg (base_first ()) first
    in
    let iter keys f =
      (match view with
      | Base -> ()
      | Union -> emit rs f (pend keys).all
      | World ->
          let p = pend keys in
          if p != no_posting then emit rs f (posting_visible t rs p));
      let idx = base () in
      if Obs.enabled t.obs then begin
        let hits, misses = R.Segment.dict_probe seg idx keys in
        if hits > 0 then Obs.add t.obs "segment.dict_hits" hits;
        if misses > 0 then Obs.add t.obs "segment.dict_miss" misses
      end;
      R.Segment.probe_iter seg idx keys f
    in
    { R.Source.count; iter }

let prepare t view name cols =
  let rs = rel_store t name in
  let tbl = rs.probes.(view_slot view) in
  match Hashtbl.find_opt tbl cols with
  | Some p -> p
  | None ->
      let p = make_probe t view rs cols in
      Hashtbl.replace tbl (Array.copy cols) p;
      p

let mem t view name tuple =
  let rs = rel_store t name in
  R.Segment.mem rs.base.b_seg tuple
  ||
  match R.Tuple.Tbl.find_opt rs.by_tuple tuple with
  | None -> false
  | Some i -> pend_visible view rs i

let cardinality t name =
  let rs = rel_store t name in
  R.Segment.length rs.base.b_seg + rs.len

let view_source t view =
  {
    R.Source.catalog = R.Database.catalog t.db.Bcdb.state;
    scan = scan t view;
    prepare = prepare t view;
    mem = mem t view;
    cardinality = cardinality t;
  }

let with_views t =
  t.views <- Array.map (view_source t) [| World; Union; Base |];
  t

let create db = with_views (create_store db)
let clone t = with_views (clone_store t)
let source t = t.views.(view_slot World)
let union_source t = t.views.(view_slot Union)
let base_source t = t.views.(view_slot Base)
let epoch t = t.epoch

let checker t =
  match t.checker with
  | Some c -> c
  | None ->
      let c = R.Check.checker (base_source t) t.db.Bcdb.constraints in
      t.checker <- Some c;
      c

let validity t =
  R.Check.sweep (checker t)
    (Array.map (fun (tx : Pending.t) -> tx.Pending.rows) t.db.Bcdb.pending)

let origins t name tuple =
  let rs = rel_store t name in
  match base_find rs.base tuple with
  | bpos when bpos >= 0 -> (
      match Hashtbl.find_opt rs.overlay bpos with
      | Some o -> Array.to_list o
      | None -> (
          match Hashtbl.find_opt rs.base.b_extra bpos with
          | Some o -> Array.to_list o
          | None -> [ base_origin ]))
  | _ -> (
      match R.Tuple.Tbl.find_opt rs.by_tuple tuple with
      | Some i -> Array.to_list rs.entries.(i).origins
      | None -> [])

let to_database t =
  let out = R.Database.create (R.Database.catalog t.db.Bcdb.state) in
  Smap.iter
    (fun name rs ->
      Seq.iter
        (fun tuple -> ignore (R.Database.insert out name tuple))
        (R.Segment.tuple_seq rs.base.b_seg);
      for i = 0 to rs.len - 1 do
        if rs.viscount.(i) > 0 then
          ignore (R.Database.insert out name rs.entries.(i).tuple)
      done)
    t.rels;
  out

(* --- hypothetical extension (dry runs) --- *)

type undo_item =
  | Entry_added of string * int
  | Origin_added of string * int * entry
  | Overlay_set of string * int * int array option

type journal = {
  prev_db : Bcdb.t;
  prev_visible : Bitset.t;
  items : undo_item list;
}

let push_entry rs e =
  if rs.len >= Array.length rs.entries then begin
    let ncap = max 16 (2 * Array.length rs.entries) in
    let ne = Array.make ncap e in
    Array.blit rs.entries 0 ne 0 rs.len;
    rs.entries <- ne
  end;
  if rs.len >= Array.length rs.viscount then begin
    let nv = Array.make (max 16 (2 * Array.length rs.viscount)) 0 in
    Array.blit rs.viscount 0 nv 0 rs.len;
    rs.viscount <- nv
  end;
  rs.entries.(rs.len) <- e;
  rs.viscount.(rs.len) <- 0;
  rs.len <- rs.len + 1;
  rs.len - 1

let add_origin rs id p =
  Hashtbl.replace rs.by_origin id
    (p :: Option.value (Hashtbl.find_opt rs.by_origin id) ~default:[])

let append_tx t (db' : Bcdb.t) =
  let id = t.k in
  assert (Array.length db'.Bcdb.pending = t.k + 1);
  let tx = db'.Bcdb.pending.(id) in
  let journal =
    {
      prev_db = t.db;
      prev_visible = t.visible;
      items =
        List.map
          (fun (rel, tuple) ->
            let rs = rel_store t rel in
            match base_find rs.base tuple with
            | bpos when bpos >= 0 ->
                (* Base rows are always visible; the new origin only has
                   to show up in [origins], via the overlay. *)
                let prev = Hashtbl.find_opt rs.overlay bpos in
                let before =
                  match prev with
                  | Some o -> o
                  | None -> (
                      match Hashtbl.find_opt rs.base.b_extra bpos with
                      | Some o -> o
                      | None -> [| base_origin |])
                in
                Hashtbl.replace rs.overlay bpos (Array.append before [| id |]);
                Overlay_set (rel, bpos, prev)
            | _ -> (
                match R.Tuple.Tbl.find_opt rs.by_tuple tuple with
                | Some i ->
                    let prev = rs.entries.(i) in
                    rs.entries.(i) <-
                      { prev with origins = Array.append prev.origins [| id |] };
                    add_origin rs id i;
                    Origin_added (rel, i, prev)
                | None ->
                    let i = push_entry rs { tuple; origins = [| id |] } in
                    R.Tuple.Tbl.replace rs.by_tuple tuple i;
                    add_origin rs id i;
                    (* The new position is invisible ([id] is not in any
                       world yet), so live posting caches stay valid. *)
                    Hashtbl.iter
                      (fun col idx ->
                        let v = tuple.(col) in
                        match Vtbl.find_opt idx v with
                        | Some p ->
                            p.all <- i :: p.all;
                            p.count <- p.count + 1
                        | None ->
                            Vtbl.replace idx v
                              { all = [ i ]; count = 1; cepoch = -1; cvis = [] })
                      rs.indexes;
                    Hashtbl.iter
                      (fun cols idx ->
                        let key = R.Tuple.project tuple cols in
                        match R.Tuple.Tbl.find_opt idx key with
                        | Some p ->
                            p.all <- i :: p.all;
                            p.count <- p.count + 1
                        | None ->
                            R.Tuple.Tbl.replace idx key
                              { all = [ i ]; count = 1; cepoch = -1; cvis = [] })
                      rs.composite;
                    Entry_added (rel, i)))
          tx.Pending.rows;
    }
  in
  t.db <- db';
  t.k <- t.k + 1;
  t.visible <- Bitset.resize journal.prev_visible t.k;
  journal

let undo t journal =
  (* Restore the previous world's membership first, while [by_origin]
     still routes the hypothetical transaction's flips. *)
  apply_world t (Bitset.resize journal.prev_visible t.k);
  let id = Array.length journal.prev_db.Bcdb.pending in
  List.iter
    (function
      | Overlay_set (rel, bpos, prev) -> (
          let rs = rel_store t rel in
          match prev with
          | Some o -> Hashtbl.replace rs.overlay bpos o
          | None -> Hashtbl.remove rs.overlay bpos)
      | Origin_added (rel, i, prev) -> (rel_store t rel).entries.(i) <- prev
      | Entry_added (rel, i) ->
          let rs = rel_store t rel in
          let e = rs.entries.(i) in
          R.Tuple.Tbl.remove rs.by_tuple e.tuple;
          Hashtbl.iter
            (fun col idx ->
              let v = e.tuple.(col) in
              match Vtbl.find_opt idx v with
              | None -> ()
              | Some p ->
                  p.all <- List.filter (fun q -> q <> i) p.all;
                  p.count <- p.count - 1;
                  p.cepoch <- -1)
            rs.indexes;
          Hashtbl.iter
            (fun cols idx ->
              let key = R.Tuple.project e.tuple cols in
              match R.Tuple.Tbl.find_opt idx key with
              | None -> ()
              | Some p ->
                  p.all <- List.filter (fun q -> q <> i) p.all;
                  p.count <- p.count - 1;
                  p.cepoch <- -1)
            rs.composite;
          (* Entries were appended; undoing in any order is fine because
             lengths only shrink back to the original boundary. *)
          rs.len <- min rs.len i)
    (List.rev journal.items);
  Smap.iter (fun _ rs -> Hashtbl.remove rs.by_origin id) t.rels;
  t.db <- journal.prev_db;
  t.k <- Array.length journal.prev_db.Bcdb.pending;
  t.visible <- journal.prev_visible;
  t.epoch <- t.epoch + 1
