module R = Relational
module Bitset = Bcgraph.Bitset

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
     carries its merged origin set in the sparse per-store [b_extra]
     side table.

   - the {e pending segment} holds tuples contributed only by pending
     transactions; their visibility depends on the active world. It is
     private to each store. Instead of re-testing origin sets per probe,
     each pending position carries a visible-origin refcount
     ([viscount]) maintained incrementally by world *deltas*: switching
     worlds flips only the transactions whose membership changed
     (O(|delta|)), not O(k). A probe walks a posting list and tests
     [viscount] inline. *)

type posting = {
  mutable all : int list;  (* pending positions, descending *)
  mutable count : int;  (* memoized [List.length all] *)
}

type rel_store = {
  seg : R.Segment.t;
      (* the base state; shared with clones: immutable columns +
         lock-guarded index cache *)
  b_extra : (int, int array) Hashtbl.t;
      (* base position -> merged origins [|-1; tx...|]; only positions
         some pending transaction also contributes. At most as large as
         the pending rows; copied on clone, extended by {!append_tx}. *)
  bmemo : (int list, R.Segment.index) Hashtbl.t;
      (* per-store memo of base indexes already fetched: lock-free *)
  mutable entries : entry array;  (* pending segment, valid up to [len] *)
  mutable len : int;
  by_tuple : int R.Tuple.Lookup.t;  (* pending tuples only *)
  postings : (int list, posting R.Tuple.Lookup.t) Hashtbl.t;
      (** Pending hash indexes, keyed by the (sorted) column list; the
          inner table maps a projection to pending positions. Built on
          demand for the column sets the evaluator actually probes. *)
  mutable by_origin : int list array;
      (* tx id -> its pending positions, descending; [] past the end *)
  mutable viscount : int array;  (* per pending position *)
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

let unknown_relation name = invalid_arg ("Tagged_store: unknown relation " ^ name)

let rel_store t name =
  match Smap.find name t.rels with rs -> rs | exception Not_found -> unknown_relation name

(* Fills entry arrays: a static value, so making a large array never
   waits for the runtime to empty the minor heap, as seeding it with a
   young entry would. *)
let no_entry = { tuple = [||]; origins = [||] }

(* An empty pending segment over the base [seg], sized for [rows]
   pending rows (an upper bound on its entries). *)
let empty_rel seg ~rows ~txs =
  let cap = max 16 rows in
  {
    seg;
    b_extra = Hashtbl.create 4;
    bmemo = Hashtbl.create 4;
    entries = Array.make rows no_entry;
    len = 0;
    by_tuple = R.Tuple.Lookup.create cap;
    postings = Hashtbl.create 4;
    by_origin = Array.make txs [];
    viscount = Array.make (max 1 rows) 0;
    probes = Array.init 3 (fun _ -> Hashtbl.create 8);
  }

let push_entry rs e =
  if rs.len >= Array.length rs.entries then begin
    let ncap = max 16 (2 * Array.length rs.entries) in
    let ne = Array.make ncap no_entry in
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

let posting_add tbl key i =
  match R.Tuple.Lookup.find tbl key with
  | p ->
      p.all <- i :: p.all;
      p.count <- p.count + 1
  | exception Not_found -> R.Tuple.Lookup.add tbl key { all = [ i ]; count = 1 }

(* The one insertion step, shared by {!create} and {!append_tx}: load
   transaction [id]'s rows. Ids arrive ascending and a transaction's
   rows are distinct (Pending.make), so appending [id] keeps every
   origin array ascending. A row the base also holds only merges [id]
   into that base position's [b_extra] origins (the row is visible
   everywhere anyway); a row another transaction already wrote gains
   the origin; any other row becomes a new entry, so entries stay in
   order of first occurrence. [by_origin] lists stay by descending
   position — the order world deltas report rows in. Returns the base
   positions written, for {!undo}. *)
let insert_tx t id rows =
  let base_hits = ref [] and shared = ref [] in
  List.iter
    (fun (rel, tuple) ->
      let rs = rel_store t rel in
      let bpos = R.Segment.find rs.seg tuple in
      if bpos >= 0 then begin
        let before =
          match Hashtbl.find rs.b_extra bpos with
          | o -> o
          | exception Not_found -> [| base_origin |]
        in
        Hashtbl.replace rs.b_extra bpos (Array.append before [| id |]);
        base_hits := (rs, bpos) :: !base_hits
      end
      else
        let i =
          match R.Tuple.Lookup.find rs.by_tuple tuple with
          | i ->
              let e = rs.entries.(i) in
              rs.entries.(i) <- { e with origins = Array.append e.origins [| id |] };
              if not (List.memq rs !shared) then shared := rs :: !shared;
              i
          | exception Not_found ->
              let i = push_entry rs { tuple; origins = [| id |] } in
              R.Tuple.Lookup.add rs.by_tuple tuple i;
              Hashtbl.iter
                (fun cols tbl -> posting_add tbl (R.Tuple.project tuple cols) i)
                rs.postings;
              i
        in
        if id >= Array.length rs.by_origin then begin
          let grown = Array.make (max 16 (2 * id)) [] in
          Array.blit rs.by_origin 0 grown 0 (Array.length rs.by_origin);
          rs.by_origin <- grown
        end;
        rs.by_origin.(id) <- i :: rs.by_origin.(id))
    rows;
  (* A row that joined an older entry may sit below positions pushed
     before it. *)
  List.iter
    (fun rs ->
      rs.by_origin.(id) <- List.sort (fun a b -> Int.compare b a) rs.by_origin.(id))
    !shared;
  !base_hits

let create_store (db : Bcdb.t) =
  let state = db.Bcdb.state in
  let schemas = R.Schema.relations (R.Database.catalog state) in
  (* Rows per relation, to size its tables: a name compare per row, no
     hashing. *)
  let counts =
    List.fold_left (fun m s -> Smap.add s.R.Schema.name (ref 0) m) Smap.empty schemas
  in
  Array.iter
    (fun (tx : Pending.t) ->
      List.iter
        (fun (rel, _) ->
          match Smap.find rel counts with
          | n -> incr n
          | exception Not_found -> unknown_relation rel)
        tx.Pending.rows)
    db.Bcdb.pending;
  let k = Array.length db.Bcdb.pending in
  let rels =
    Smap.mapi
      (fun rel rows ->
        (* The base state reaches the store columnar: zero-cost when the
           database was restored from a binary snapshot (all segment),
           one streaming encode when it was built row by row. *)
        empty_rel (R.Database.to_segment state rel) ~rows:!rows ~txs:k)
      counts
  in
  let t =
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
  in
  Array.iter
    (fun (tx : Pending.t) -> ignore (insert_tx t tx.Pending.id tx.Pending.rows))
    db.Bcdb.pending;
  t

let clone_rel rs =
  let postings = Hashtbl.copy rs.postings in
  Hashtbl.filter_map_inplace
    (fun _ tbl ->
      let out = R.Tuple.Lookup.create (max 4 (R.Tuple.Lookup.length tbl)) in
      R.Tuple.Lookup.iter
        (fun key (p : posting) ->
          R.Tuple.Lookup.replace out key { all = p.all; count = p.count })
        tbl;
      Some out)
    postings;
  {
    seg = rs.seg;
    b_extra = Hashtbl.copy rs.b_extra;
    bmemo = Hashtbl.copy rs.bmemo;
    entries = Array.copy rs.entries;
    len = rs.len;
    by_tuple = R.Tuple.Lookup.copy rs.by_tuple;
    postings;
    by_origin = Array.copy rs.by_origin;
    viscount = Array.copy rs.viscount;
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
  Smap.fold (fun _ rs acc -> acc + R.Segment.bytes rs.seg) t.rels 0

let positions rs id =
  if id < Array.length rs.by_origin then rs.by_origin.(id) else []

(* Switch to [vis] (a fresh bitset owned by the store) by flipping only
   the transactions whose membership changed. A no-op switch keeps the
   epoch. *)
let apply_world t vis =
  if not (Bitset.equal vis t.visible) then begin
    let old = t.visible in
    Smap.iter
      (fun _ rs ->
        let flip sign id =
          List.iter (fun p -> rs.viscount.(p) <- rs.viscount.(p) + sign) (positions rs id)
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
                 (positions rs id))
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
      let idx = R.Segment.index rs.seg cols in
      Hashtbl.replace rs.bmemo cols idx;
      idx

(* --- pending-segment indexes (private, incremental) --- *)

(* The posting table of one sorted column list: projection -> pending
   positions. A single column is a one-column projection. *)
let postings rs cols =
  match Hashtbl.find_opt rs.postings cols with
  | Some tbl -> tbl
  | None ->
      let tbl = R.Tuple.Lookup.create (max 16 rs.len) in
      for i = 0 to rs.len - 1 do
        posting_add tbl (R.Tuple.project rs.entries.(i).tuple cols) i
      done;
      Hashtbl.replace rs.postings cols tbl;
      tbl

(* The posting a probe finds when its key has none; never mutated. *)
let no_posting = { all = []; count = 0 }

let find_posting tbl keys =
  match R.Tuple.Lookup.find tbl keys with p -> p | exception Not_found -> no_posting

(* Which pending positions a view sees: those of the active world
   ({!source}), every one ({!union_source}, the instance [R ∪ T]) or
   none ({!base_source}, [R] alone). The two fixed views never read
   [visible], [viscount] or [epoch], so a probe through them leaves the
   active world alone. Every view yields the same order (pending matches
   by descending position, then base matches), so a fixed view answers
   exactly what {!source} answers after {!all_visible}/{!base_only}. *)
type view = World | Union | Base

let view_slot = function World -> 0 | Union -> 1 | Base -> 2

let pend_visible view rs i =
  match view with World -> rs.viscount.(i) > 0 | Union -> true | Base -> false

let rec emit rs f = function
  | [] -> ()
  | i :: rest ->
      f rs.entries.(i).tuple;
      emit rs f rest

let rec emit_visible rs f = function
  | [] -> ()
  | i :: rest ->
      if rs.viscount.(i) > 0 then f rs.entries.(i).tuple;
      emit_visible rs f rest

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

(* The probe of one view, relation and bound-column set. Over no column
   it is the full read: base rows by position, then the view's pending
   rows by ascending position. Otherwise [iter] yields pending matches
   (descending position), then base matches (descending position).
   [count] is world-independent by design: memoized pending posting
   counts plus the base hash-range width (an upper bound — collisions
   are not filtered out, which is fine for a cost estimate and identical
   across every store sharing the segment, so the primary store and its
   replicas pick the same join orders). With more than 3 bound columns
   it estimates from the lowest column's table alone; iterating goes
   through the exact table over every bound column. The pending tables
   are the store's own, maintained in place by {!append_tx}/{!undo}, so
   the handle outlives both. A relation whose base segment is empty
   (all of Dense's rows are pending) skips the base side: it counts 0
   and yields nothing, so no base index is built or searched. *)
let make_probe t view rs cols =
  let seg = rs.seg in
  let base_empty = R.Segment.length seg = 0 in
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
    let exact = memo (fun () -> postings rs col_list) in
    let base = memo (fun () -> base_index rs col_list) in
    let count =
      if n <= 3 then fun keys ->
        (find_posting (exact ()) keys).count
        + if base_empty then 0 else R.Segment.probe_count seg (base ()) keys
      else
        let pend_first = memo (fun () -> postings rs [ cols.(0) ]) in
        let base_first = memo (fun () -> base_index rs [ cols.(0) ]) in
        let first = [| R.Value.Null |] in
        fun keys ->
          first.(0) <- keys.(0);
          (find_posting (pend_first ()) first).count
          +
          if base_empty then 0
          else R.Segment.probe_count seg (base_first ()) first
    in
    let iter keys f =
      (match view with
      | Base -> ()
      | Union -> emit rs f (find_posting (exact ()) keys).all
      | World -> emit_visible rs f (find_posting (exact ()) keys).all);
      if not base_empty then begin
        let idx = base () in
        if Obs.enabled t.obs then begin
          let hits, misses = R.Segment.dict_probe seg idx keys in
          if hits > 0 then Obs.add t.obs "segment.dict_hits" hits;
          if misses > 0 then Obs.add t.obs "segment.dict_miss" misses
        end;
        R.Segment.probe_iter seg idx keys f
      end
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
  R.Segment.mem rs.seg tuple
  ||
  match R.Tuple.Lookup.find rs.by_tuple tuple with
  | i -> pend_visible view rs i
  | exception Not_found -> false

let view_source t view =
  {
    R.Source.catalog = R.Database.catalog t.db.Bcdb.state;
    prepare = prepare t view;
    mem = mem t view;
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
  match R.Segment.find rs.seg tuple with
  | bpos when bpos >= 0 -> (
      match Hashtbl.find_opt rs.b_extra bpos with
      | Some o -> Array.to_list o
      | None -> [ base_origin ])
  | _ -> (
      match R.Tuple.Lookup.find_opt rs.by_tuple tuple with
      | Some i -> Array.to_list rs.entries.(i).origins
      | None -> [])

let to_database t =
  let out = R.Database.create (R.Database.catalog t.db.Bcdb.state) in
  Smap.iter
    (fun name rs ->
      Seq.iter
        (fun tuple -> ignore (R.Database.insert out name tuple))
        (R.Segment.tuple_seq rs.seg);
      for i = 0 to rs.len - 1 do
        if rs.viscount.(i) > 0 then
          ignore (R.Database.insert out name rs.entries.(i).tuple)
      done)
    t.rels;
  out

(* --- hypothetical extension (dry runs) --- *)

(* The journal keeps only what {!insert_tx} cannot be read back from:
   the previous database and world, and the base positions written.
   The transaction's pending positions are [by_origin]'s list for its
   id; an entry whose origins are [|id|] alone was new. *)
type journal = {
  prev_db : Bcdb.t;
  prev_visible : Bitset.t;
  base_hits : (rel_store * int) list;
}

let append_tx t (db' : Bcdb.t) =
  let id = t.k in
  assert (Array.length db'.Bcdb.pending = t.k + 1);
  let prev_db = t.db and prev_visible = t.visible in
  let base_hits = insert_tx t id db'.Bcdb.pending.(id).Pending.rows in
  t.db <- db';
  t.k <- t.k + 1;
  t.visible <- Bitset.resize prev_visible t.k;
  { prev_db; prev_visible; base_hits }

let drop_last a = Array.sub a 0 (Array.length a - 1)

let undo t journal =
  (* Restore the previous world's membership first, while [by_origin]
     still routes the hypothetical transaction's flips. *)
  apply_world t (Bitset.resize journal.prev_visible t.k);
  let id = Array.length journal.prev_db.Bcdb.pending in
  List.iter
    (fun (rs, bpos) ->
      let o = Hashtbl.find rs.b_extra bpos in
      if Array.length o = 2 then Hashtbl.remove rs.b_extra bpos
      else Hashtbl.replace rs.b_extra bpos (drop_last o))
    journal.base_hits;
  Smap.iter
    (fun _ rs ->
      List.iter
        (fun i ->
          let e = rs.entries.(i) in
          if Array.length e.origins > 1 then
            rs.entries.(i) <- { e with origins = drop_last e.origins }
          else begin
            R.Tuple.Lookup.remove rs.by_tuple e.tuple;
            Hashtbl.iter
              (fun cols tbl ->
                let p = R.Tuple.Lookup.find tbl (R.Tuple.project e.tuple cols) in
                p.all <- List.filter (fun q -> q <> i) p.all;
                p.count <- p.count - 1)
              rs.postings;
            (* New entries sit at the end: the length shrinks back to
               the first of them. *)
            rs.len <- min rs.len i
          end)
        (positions rs id);
      if id < Array.length rs.by_origin then rs.by_origin.(id) <- [])
    t.rels;
  t.db <- journal.prev_db;
  t.k <- id;
  t.visible <- journal.prev_visible;
  t.epoch <- t.epoch + 1
