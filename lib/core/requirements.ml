module R = Relational

type ind = { sub_rel : string; sup_rel : string; sub : int array; sup : int array }

(* One pending transaction: its rows, its verdicts, its open rows and,
   once the provider layer is built, the bucket of each open row (its
   right side is the row's providers). The buckets hold these records,
   not ids: [remove] keeps the ids dense by renumbering the records
   above the removed one, and no bucket is rewritten. *)
type member = {
  mutable id : int;
  tx : Pending.t;
  mutable valid : bool;  (* R ∪ T_i |= I_fd *)
  mutable includable : bool;  (* R ∪ T_i |= I *)
  mutable opens : (int * R.Tuple.t) list;  (* (ind, row), in row order *)
  mutable needs : member Buckets.bucket list;  (* in [opens] order *)
}

(* The provider side, built on first use: per ind, one bucket table over
   the pending rows, a sub row on the left of its bucket and a sup row
   on the right. A transaction's own buckets are found again from its
   rows when an event needs them. *)
type t = {
  inds : ind array;
  mutable members : member array;
      (* by id, the first [count]; room to grow past them, so that an
         arrival copies no O(pending) array *)
  mutable count : int;
  tables : member Buckets.t array option Atomic.t;
  lock : Mutex.t;  (* one build of [tables] *)
}

let id m = m.id

let inds_of (db : Bcdb.t) =
  Array.of_list
    (List.map
       (fun (i : R.Constr.ind) ->
         {
           sub_rel = i.R.Constr.sub_rel;
           sup_rel = i.R.Constr.sup_rel;
           sub = Array.of_list i.R.Constr.sub_attrs;
           sup = Array.of_list i.R.Constr.sup_attrs;
         })
       (Bcdb.inds db))

(* One sweep of [checker] over the members: their validity,
   includability and open rows. *)
let judge_all checker members =
  let opens = Array.make (Array.length members) [] in
  let valid, includable =
    R.Check.sweep
      ~on_open:(fun b j t -> opens.(b) <- (j, t) :: opens.(b))
      checker
      (Array.map (fun m -> m.tx.Pending.rows) members)
  in
  Array.iteri
    (fun i m ->
      m.valid <- valid.(i);
      m.includable <- includable.(i);
      m.opens <- List.rev opens.(i))
    members

let create checker (db : Bcdb.t) =
  let members =
    Array.mapi
      (fun id tx -> { id; tx; valid = false; includable = false; opens = []; needs = [] })
      db.Bcdb.pending
  in
  judge_all checker members;
  {
    inds = inds_of db;
    members;
    count = Array.length members;
    tables = Atomic.make None;
    lock = Mutex.create ();
  }

let tx_count t = t.count
let live t = Array.sub t.members 0 t.count

let member t i =
  if i < 0 || i >= t.count then invalid_arg "Requirements: no such transaction";
  t.members.(i)

let is_valid t i = (member t i).valid
let is_includable t i = (member t i).includable
let node_ok t = Array.init t.count (fun i -> t.members.(i).valid)
let includable t = Array.init t.count (fun i -> t.members.(i).includable)

(* --- the provider side ---------------------------------------------- *)

(* [f j row pos ~sub] for each of [rows]' keys, per ind [j]: [sub] for
   a sub row keyed at the ind's sub positions, otherwise a sup row at
   its sup positions. *)
let iter_keys t rows f =
  Array.iteri
    (fun j ind ->
      List.iter
        (fun (rel, row) ->
          if String.equal rel ind.sup_rel then f j row ind.sup ~sub:false;
          if String.equal rel ind.sub_rel then f j row ind.sub ~sub:true)
        rows)
    t.inds

(* Bucket [m]'s rows ([m] above every transaction bucketed so far). *)
let link_tx t tables m =
  iter_keys t m.tx.Pending.rows (fun j row pos ~sub ->
      let b = Buckets.get tables.(j) row pos in
      if sub then Buckets.add_left b m else Buckets.add_right b m)

(* Every open row's sub values were bucketed with its transaction. *)
let attach t tables m =
  m.needs <-
    List.map
      (fun (j, row) ->
        match Buckets.find tables.(j) row t.inds.(j).sub with
        | Some b -> b
        | None -> invalid_arg "Requirements: an open row was never bucketed")
      m.opens

(* Each ind's table is sized to the pending rows of its two relations. *)
let build t =
  let members = live t in
  let rows ind =
    Array.fold_left
      (fun n m ->
        List.fold_left
          (fun n (rel, _) ->
            if String.equal rel ind.sub_rel || String.equal rel ind.sup_rel then n + 1
            else n)
          n m.tx.Pending.rows)
      0 members
  in
  let tables = Array.map (fun ind -> Buckets.create (rows ind)) t.inds in
  Array.iter (link_tx t tables) members;
  Array.iter (fun m -> if m.opens <> [] then attach t tables m) members;
  tables

let tables t =
  match Atomic.get t.tables with
  | Some l -> l
  | None ->
      Mutex.protect t.lock @@ fun () ->
      (match Atomic.get t.tables with
      | Some l -> l
      | None ->
          let l = build t in
          Atomic.set t.tables (Some l);
          l)

let linked t = Option.is_some (Atomic.get t.tables)
let link t = ignore (tables t)

let iter_needs t i f =
  ignore (tables t);
  List.iter (fun (b : member Buckets.bucket) -> f b.Buckets.right) (member t i).needs

let ids side = List.map id (Array.to_list side)

let open_rows t i =
  ignore (tables t);
  let m = member t i in
  List.map2
    (fun (j, row) (b : member Buckets.bucket) -> (j, row, ids b.Buckets.right))
    m.opens m.needs

let iter_links t f =
  Array.iter
    (fun tbl -> Buckets.iter tbl (fun b -> Buckets.iter_links b (fun m m' -> f m.id m'.id)))
    (tables t)

let edges t =
  let acc = ref [] in
  Array.iter
    (fun tbl ->
      Buckets.iter tbl (fun b ->
          Array.iter
            (fun m ->
              Array.iter
                (fun m' ->
                  let i = m.id and j = m'.id in
                  if i < j then acc := (i, j) :: !acc
                  else if j < i then acc := (j, i) :: !acc)
                b.Buckets.right)
            b.Buckets.left))
    (tables t);
  List.sort_uniq compare !acc

let neighbours t i =
  let tables = tables t in
  let acc = ref [] in
  iter_keys t (member t i).tx.Pending.rows (fun j row pos ~sub ->
      match Buckets.find tables.(j) row pos with
      | None -> ()
      | Some b ->
          Array.iter
            (fun m -> if m.id <> i then acc := m.id :: !acc)
            (if sub then b.Buckets.right else b.Buckets.left));
  List.sort_uniq Int.compare !acc

(* --- maintenance ------------------------------------------------------ *)

let add t checker (tx : Pending.t) =
  let opens = ref [] in
  let outcome =
    R.Check.outcome
      ~on_open:(fun j row -> opens := (j, row) :: !opens)
      checker tx.Pending.rows
  in
  let m =
    {
      id = t.count;
      tx;
      valid = outcome <> R.Check.Fd_violated;
      includable = outcome = R.Check.Satisfied;
      opens = List.rev !opens;
      needs = [];
    }
  in
  if t.count = Array.length t.members then begin
    let grown = Array.make (max 16 (2 * t.count)) m in
    Array.blit t.members 0 grown 0 t.count;
    t.members <- grown
  end;
  t.members.(t.count) <- m;
  t.count <- t.count + 1;
  match Atomic.get t.tables with
  | None -> ()
  | Some tables ->
      link_tx t tables m;
      attach t tables m

(* Take [m] out of its buckets; a bucket left empty leaves its table. *)
let unlink t m =
  match Atomic.get t.tables with
  | None -> ()
  | Some tables ->
      iter_keys t m.tx.Pending.rows (fun j row pos ~sub:_ ->
          match Buckets.find tables.(j) row pos with
          | None -> ()
          | Some b ->
              Buckets.remove_member b m;
              if Buckets.is_empty b then Buckets.remove tables.(j) row pos)

(* Drop the last member, pointing its slot at the first so that the
   dropped record is not kept alive by it. *)
let shrink t =
  t.count <- t.count - 1;
  t.members.(t.count) <- t.members.(0)

let remove_last t =
  unlink t (member t (t.count - 1));
  shrink t

(* The members above [id] move down by one: the buckets holding them
   read the new ids without being touched. *)
let remove t id =
  unlink t (member t id);
  Array.blit t.members (id + 1) t.members id (t.count - id - 1);
  for k = id to t.count - 2 do
    t.members.(k).id <- k
  done;
  shrink t

let resweep t checker =
  let members = live t in
  let old = Array.map (fun m -> m.opens) members in
  judge_all checker members;
  match Atomic.get t.tables with
  | None -> ()
  | Some tables ->
      (* A transaction whose open rows are the same rows keeps their
         buckets: most of them, as [R] only grew. *)
      let same = List.equal (fun (j, r) (j', r') -> j = j' && r == r') in
      Array.iteri
        (fun i m -> if not (same m.opens old.(i)) then attach t tables m)
        members
