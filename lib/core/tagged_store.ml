module R = Relational
module Bitset = Bcgraph.Bitset

type entry = { tuple : R.Tuple.t; origins : int array }

(* The store is segmented per relation:

   - the {e base segment} holds every tuple contributed by the base
     state, as one immutable columnar {!R.Segment.t}. Base tuples are
     visible in *every* world. Indexes are built on demand under the
     segment's own lock and memoized per prepared probe, so
     steady-state probes never touch the lock. The rare base tuple that
     is *also* written by pending transactions carries its merged origin
     set in the sparse [b_extra] side table.

   - the {e pending segment} holds tuples contributed only by pending
     transactions, each with its ascending [origins]. Its visibility
     depends on the world: a probe walks a posting list and tests each
     entry's origins against the handle's bitset inline.

   Both segments are shared by every handle of one store — the one
   {!create} returned and each {!view} of it — like the rows of the
   paper's tables, whose [current] column marks one world (§6.3). A
   handle owns only its world bitset, epoch, Source records and prepared
   probes, so a view costs O(relations), and switching a handle's world
   is one bitset copy. *)

type posting = {
  mutable all : int list;  (* pending positions, descending *)
  mutable count : int;  (* memoized [List.length all] *)
}

type rel_store = {
  seg : R.Segment.t;
      (* the base state: immutable columns + lock-guarded index cache *)
  b_extra : (int, int array) Hashtbl.t;
      (* base position -> merged origins [|-1; tx...|]; only positions
         some pending transaction also contributes. At most as large as
         the pending rows; extended by {!append_tx}. *)
  mutable entries : entry array;  (* pending segment, valid up to [len] *)
  mutable len : int;
  by_tuple : int R.Tuple.Lookup.t;  (* pending tuples only *)
  postings : (int list, posting R.Tuple.Lookup.t) Hashtbl.t;
      (** Pending hash indexes, keyed by the (sorted) column list; the
          inner table maps a projection to pending positions. Built on
          demand for the column sets the evaluator actually probes,
          under the store's shared lock. *)
  mutable by_origin : int list array;
      (* tx id -> its pending positions, descending; [] past the end *)
}

(* One relation as a handle sees it: the shared tables, and the
   handle's own prepared probes per view ([World], [Union], [Base]) and
   bound columns. A probe memoizes the tables it reads, so it is never
   shared between handles. *)
type rel = { rs : rel_store; probes : (int array, R.Source.probe) Hashtbl.t array }

module Smap = Map.Make (String)

type t = {
  uid : int;  (* unique per handle; hash key for weak registries *)
  primary : bool;  (* made by [create]: the one handle that may append *)
  lock : Mutex.t;  (* shared by the store's handles: posting-table builds *)
  mutable db : Bcdb.t;
  rels : rel Smap.t;
  mutable k : int;
  mutable visible : Bitset.t;  (* never written in place: see [view_store] *)
  mutable epoch : int;
  mutable obs : Obs.t;
  mutable views : R.Source.t array;
      (* the [World], [Union] and [Base] sources, built once per handle *)
  mutable checker : R.Check.checker option;
      (* the constraints prepared on the [Base] view, on first use *)
  requirements : Requirements.t option Atomic.t;
      (* shared by the store's handles, built once under [req_lock] *)
  req_lock : Mutex.t;
}

(* Every handle — created or a view — gets a fresh uid, so a
   weak table keyed by physical handle identity can hash without walking
   the (deep, mutable) structure. *)
let uid_counter = Atomic.make 0
let fresh_uid () = Atomic.fetch_and_add uid_counter 1

let base_origin = -1

let unknown_relation name = invalid_arg ("Tagged_store: unknown relation " ^ name)

let rel t name =
  match Smap.find name t.rels with r -> r | exception Not_found -> unknown_relation name

let rel_store t name = (rel t name).rs

(* Fills entry arrays: a static value, so making a large array never
   waits for the runtime to empty the minor heap, as seeding it with a
   young entry would. *)
let no_entry = { tuple = [||]; origins = [||] }

(* An empty pending segment over the base [seg], sized for [rows]
   pending rows (an upper bound on its entries). *)
let empty_rel seg ~rows ~txs =
  {
    seg;
    b_extra = Hashtbl.create 4;
    entries = Array.make rows no_entry;
    len = 0;
    by_tuple = R.Tuple.Lookup.create (max 16 rows);
    postings = Hashtbl.create 4;
    by_origin = Array.make txs [];
  }

let fresh_probes () = Array.init 3 (fun _ -> Hashtbl.create 8)

let push_entry rs e =
  if rs.len >= Array.length rs.entries then begin
    let ncap = max 16 (2 * Array.length rs.entries) in
    let ne = Array.make ncap no_entry in
    Array.blit rs.entries 0 ne 0 rs.len;
    rs.entries <- ne
  end;
  rs.entries.(rs.len) <- e;
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
        {
          rs = empty_rel (R.Database.to_segment state rel) ~rows:!rows ~txs:k;
          probes = fresh_probes ();
        })
      counts
  in
  let t =
    {
      uid = fresh_uid ();
      primary = true;
      lock = Mutex.create ();
      db;
      rels;
      k;
      visible = Bitset.create k;
      epoch = 0;
      obs = Obs.null;
      views = [||];
      checker = None;
      requirements = Atomic.make None;
      req_lock = Mutex.create ();
    }
  in
  Array.iter
    (fun (tx : Pending.t) -> ignore (insert_tx t tx.Pending.id tx.Pending.rows))
    db.Bcdb.pending;
  t

(* A handle's bitset is never written in place — a switch installs a
   fresh one — so a view starts on its parent's without copying it. *)
let view_store t =
  {
    t with
    uid = fresh_uid ();
    primary = false;
    rels = Smap.map (fun r -> { rs = r.rs; probes = fresh_probes () }) t.rels;
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
  Smap.fold (fun _ r acc -> acc + R.Segment.bytes r.rs.seg) t.rels 0

let positions rs id =
  if id < Array.length rs.by_origin then rs.by_origin.(id) else []

(* Rebind the handle to [vis] (a fresh bitset the handle owns). Probes
   read the bitset at each call, so nothing else moves. A no-op switch
   keeps the epoch. *)
let apply_world t vis =
  if not (Bitset.equal vis t.visible) then begin
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
         (fun name { rs; _ } ->
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

(* --- pending-segment indexes (shared, incremental) --- *)

(* The posting table of one sorted column list: projection -> pending
   positions. A single column is a one-column projection. Handles on
   other domains may ask for the same table at once, so the lookup and
   the first build happen under the store's lock; a prepared probe keeps
   the table it got, so steady-state probes take no lock. *)
let postings t rs cols =
  Mutex.protect t.lock @@ fun () ->
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

(* Which pending positions a source sees: those of the handle's world
   ({!source}), every one ({!union_source}, the instance [R ∪ T]) or
   none ({!base_source}, [R] alone). The two fixed sources never read
   [visible] or [epoch], so a probe through them leaves the world alone.
   Every source yields the same order (pending matches by descending
   position, then base matches), so a fixed one answers exactly what
   {!source} answers after {!all_visible}/{!base_only}. *)
type view = World | Union | Base

let view_slot = function World -> 0 | Union -> 1 | Base -> 2

(* A pending entry is in the world [vis] when one of its origins is: one
   bit test for the usual single origin, a loop for the rest
   ({!Bitset.mem_any}, closure-free: it runs once per probed position).
   An origin at or past the bitset's capacity (a transaction appended
   after the handle's world was set) is not in it. *)
let pend_visible t view rs i =
  match view with
  | World -> Bitset.mem_any t.visible rs.entries.(i).origins
  | Union -> true
  | Base -> false

let rec emit rs f = function
  | [] -> ()
  | i :: rest ->
      f rs.entries.(i).tuple;
      emit rs f rest

let rec emit_visible vis rs f = function
  | [] -> ()
  | i :: rest ->
      let e = rs.entries.(i) in
      if Bitset.mem_any vis e.origins then f e.tuple;
      emit_visible vis rs f rest

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

(* The base index over [cols], fetched for the first key every probed
   base column admits and kept. A key some column cannot hold matches
   no base row, so it is refused first, as {!R.Segment.find} does: a
   probe for a constant no base dictionary holds builds no index. *)
let base_lookup seg cols =
  let cell = ref None in
  fun keys ->
    match !cell with
    | Some _ as idx -> idx
    | None ->
        if R.Segment.admits seg cols keys then
          cell := Some (R.Segment.index seg (Array.to_list cols));
        !cell

(* The probe of one source, relation and bound-column set. Over no
   column it is the full read: base rows by position, then the source's
   pending rows by ascending position. Otherwise [iter] yields pending
   matches (descending position), then base matches (descending
   position). [count] is world-independent by design: memoized pending
   posting counts plus the base hash-range width (an upper bound —
   collisions are not filtered out, which is fine for a cost estimate
   and identical on every handle of the store, so the session's handle
   and its views pick the same join orders). With more than 3 bound
   columns it estimates from the lowest column's table alone; iterating
   goes through the exact table over every bound column. The pending
   tables are shared by the store's handles and maintained in place by
   {!append_tx}/{!undo}, so the probe outlives both. A relation whose
   base segment is empty (all of Dense's rows are pending) skips the
   base side: it counts 0 and yields nothing, so no base index is built
   or searched. *)
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
              if pend_visible t view rs i then f rs.entries.(i).tuple
            done);
    }
  else
    let exact = memo (fun () -> postings t rs (Array.to_list cols)) in
    let base = base_lookup seg cols in
    let base_count base keys =
      if base_empty then 0
      else
        match base keys with
        | Some idx -> R.Segment.probe_count seg idx keys
        | None -> 0
    in
    let count =
      if n <= 3 then fun keys ->
        (find_posting (exact ()) keys).count + base_count base keys
      else
        let pend_first = memo (fun () -> postings t rs [ cols.(0) ]) in
        let base_first = base_lookup seg [| cols.(0) |] in
        let first = [| R.Value.Null |] in
        fun keys ->
          first.(0) <- keys.(0);
          (find_posting (pend_first ()) first).count + base_count base_first first
    in
    let iter keys f =
      (match view with
      | Base -> ()
      | Union -> emit rs f (find_posting (exact ()) keys).all
      | World -> emit_visible t.visible rs f (find_posting (exact ()) keys).all);
      if not base_empty then begin
        if Obs.enabled t.obs then begin
          let hits, misses = R.Segment.dict_probe seg cols keys in
          if hits > 0 then Obs.add t.obs "segment.dict_hits" hits;
          if misses > 0 then Obs.add t.obs "segment.dict_miss" misses
        end;
        match base keys with
        | Some idx -> R.Segment.probe_iter seg idx keys f
        | None -> ()
      end
    in
    { R.Source.count; iter }

let prepare t view name cols =
  let r = rel t name in
  let tbl = r.probes.(view_slot view) in
  match Hashtbl.find_opt tbl cols with
  | Some p -> p
  | None ->
      let p = make_probe t view r.rs cols in
      Hashtbl.replace tbl (Array.copy cols) p;
      p

let mem t view name tuple =
  let rs = rel_store t name in
  R.Segment.mem rs.seg tuple
  ||
  match R.Tuple.Lookup.find rs.by_tuple tuple with
  | i -> pend_visible t view rs i
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
let view t = with_views (view_store t)
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

let requirements t =
  match Atomic.get t.requirements with
  | Some r -> r
  | None ->
      Mutex.protect t.req_lock @@ fun () ->
      (match Atomic.get t.requirements with
      | Some r -> r
      | None ->
          let r = Requirements.create (checker t) t.db in
          Atomic.set t.requirements (Some r);
          r)

let set_requirements t r =
  if Requirements.tx_count r <> t.k then
    invalid_arg "Tagged_store.set_requirements: transaction count mismatch";
  Atomic.set t.requirements (Some r)

let validity t =
  let r = requirements t in
  (Requirements.node_ok r, Requirements.includable r)

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
    (fun name { rs; _ } ->
      Seq.iter
        (fun tuple -> ignore (R.Database.insert out name tuple))
        (R.Segment.tuple_seq rs.seg);
      for i = 0 to rs.len - 1 do
        if pend_visible t World rs i then
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

let primary_only t what =
  if not t.primary then invalid_arg ("Tagged_store." ^ what ^ ": not on a view")

let append_tx t (db' : Bcdb.t) =
  primary_only t "append_tx";
  let id = t.k in
  assert (Array.length db'.Bcdb.pending = t.k + 1);
  let prev_db = t.db and prev_visible = t.visible in
  let tx = db'.Bcdb.pending.(id) in
  let base_hits = insert_tx t id tx.Pending.rows in
  t.db <- db';
  t.k <- t.k + 1;
  t.visible <- Bitset.resize prev_visible t.k;
  Option.iter
    (fun r -> Requirements.add r (checker t) tx)
    (Atomic.get t.requirements);
  { prev_db; prev_visible; base_hits }

let drop_last a = Array.sub a 0 (Array.length a - 1)

let undo t journal =
  primary_only t "undo";
  (* Rebind to the previous world first: counted like any switch. *)
  apply_world t (Bitset.resize journal.prev_visible t.k);
  let id = Array.length journal.prev_db.Bcdb.pending in
  Option.iter Requirements.remove_last (Atomic.get t.requirements);
  List.iter
    (fun (rs, bpos) ->
      let o = Hashtbl.find rs.b_extra bpos in
      if Array.length o = 2 then Hashtbl.remove rs.b_extra bpos
      else Hashtbl.replace rs.b_extra bpos (drop_last o))
    journal.base_hits;
  Smap.iter
    (fun _ { rs; _ } ->
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
