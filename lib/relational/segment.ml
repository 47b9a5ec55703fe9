(* An immutable columnar segment: one Column per attribute plus lazily
   built hash indexes. Every index — single-column, composite, or whole-
   tuple membership — has the same shape: a permutation of row positions
   sorted by the hash of the indexed projection. The hash reproduces
   [Tuple.hash]'s scheme (fold [acc*31 + Value.hash v] from 17 over the
   indexed columns in ascending order), so a probe key computed from
   boxed values lands in the same bucket as rows hashed positionally.

   The permutation is built by an LSD radix sort seeded with rows in
   descending order; the sort is stable, so rows with equal hashes stay
   in descending position order — the ordering contract the tagged
   store's probes expose. Probes binary-search the sorted hash array;
   the resulting range is an upper bound (hash collisions), and
   [probe_iter] filters collisions out by positional comparison. *)

type int_ba = Column.int_ba

type index = { icols : int array; hashes : int_ba; perm : int_ba }

type t = {
  cols : Column.t array;
  n : int;
  icache : (int list, index) Hashtbl.t;  (* shared by all referents *)
  ilock : Mutex.t;  (* guards [icache]; indexes themselves are immutable *)
  whole : index option Atomic.t;  (* the all-columns index, once built *)
}

let make cols n =
  {
    cols;
    n;
    icache = Hashtbl.create 8;
    ilock = Mutex.create ();
    whole = Atomic.make None;
  }

let length s = s.n
let arity s = Array.length s.cols
let get s row c = Column.get s.cols.(c) row
let tuple s row = Array.init (arity s) (fun c -> Column.get s.cols.(c) row)

let tuple_seq s =
  let rec go i () =
    if i >= s.n then Seq.Nil else Seq.Cons (tuple s i, go (i + 1))
  in
  go 0

let bytes s = Array.fold_left (fun acc c -> acc + Column.bytes c) 0 s.cols
let dict_size s = Array.fold_left (fun acc c -> acc + Column.dict_size c) 0 s.cols

(* ------------------------------------------------------------------ *)
(* Hash-permutation indexes *)

(* A loop over its arguments, not [Array.iter] over a closure: an index
   build calls it once per row. *)
let rec row_hash_from s icols row i acc =
  if i >= Array.length icols then acc land max_int
  else row_hash_from s icols row (i + 1) ((acc * 31) + Column.hash_at s.cols.(icols.(i)) row)

let row_hash s icols row = row_hash_from s icols row 0 17

(* Radix digit width: about log2 n, within [8, 16]. Each pass clears and
   prefix-sums [2^bits] counters, so a fixed 16-bit digit made every
   build of a few thousand rows pay for 65,536 counters per pass. The
   digit width changes the pass count, never the resulting order. *)
let digit_bits n =
  let rec bits b = if b >= 16 || 1 lsl b >= n then b else bits (b + 1) in
  bits 8

let build_index s icols =
  let n = s.n in
  let h = Array.init n (fun row -> row_hash s icols row) in
  (* Descending seed + stable LSD radix sort keeps equal-hash rows in
     descending position order. *)
  let perm = ref (Array.init n (fun k -> n - 1 - k)) in
  let scratch = ref (Array.make n 0) in
  let hmax = Array.fold_left max 0 (if n = 0 then [| 0 |] else h) in
  let bits = digit_bits n in
  let radix = 1 lsl bits in
  let mask = radix - 1 in
  let count = Array.make radix 0 in
  let shift = ref 0 in
  while !shift < 63 && hmax lsr !shift > 0 do
    Array.fill count 0 radix 0;
    let src = !perm and dst = !scratch in
    for k = 0 to n - 1 do
      let d = (h.(src.(k)) lsr !shift) land mask in
      count.(d) <- count.(d) + 1
    done;
    let acc = ref 0 in
    for d = 0 to mask do
      let c = count.(d) in
      count.(d) <- !acc;
      acc := !acc + c
    done;
    for k = 0 to n - 1 do
      let row = src.(k) in
      let d = (h.(row) lsr !shift) land mask in
      dst.(count.(d)) <- row;
      count.(d) <- count.(d) + 1
    done;
    perm := dst;
    scratch := src;
    shift := !shift + bits
  done;
  let perm = !perm in
  let hashes_ba = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  let perm_ba = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for k = 0 to n - 1 do
    Bigarray.Array1.unsafe_set perm_ba k perm.(k);
    Bigarray.Array1.unsafe_set hashes_ba k h.(perm.(k))
  done;
  { icols; hashes = hashes_ba; perm = perm_ba }

let index s cols =
  let cols = List.sort_uniq compare cols in
  Mutex.lock s.ilock;
  match Hashtbl.find_opt s.icache cols with
  | Some idx ->
      Mutex.unlock s.ilock;
      idx
  | None ->
      (* Builds are rare and the segment is shared by every handle of a
         store, so hold the lock and build once rather than racing
         duplicates. Callers memoize the returned index per probe,
         making the steady state lock-free. *)
      Fun.protect
        ~finally:(fun () -> Mutex.unlock s.ilock)
        (fun () ->
          let idx = build_index s (Array.of_list cols) in
          Hashtbl.replace s.icache cols idx;
          idx)

let whole_built s = Option.is_some (Atomic.get s.whole)

let index_order idx =
  Array.init (Bigarray.Array1.dim idx.perm) (fun k -> idx.perm.{k})

(* The all-columns index, fetched once per segment: whole-tuple probes
   ([find], [mem]) then skip the index cache's lock. *)
let whole s =
  match Atomic.get s.whole with
  | Some idx -> idx
  | None ->
      let idx = index s (List.init (arity s) Fun.id) in
      Atomic.set s.whole (Some idx);
      idx

(* ------------------------------------------------------------------ *)
(* Value-array probes: [keys.(i)] is the value of column [icols.(i)]. *)

let key_hash keys =
  let acc = ref 17 in
  for i = 0 to Array.length keys - 1 do
    acc := (!acc * 31) + Value.hash (Array.unsafe_get keys i)
  done;
  !acc land max_int

(* First k with hashes.(k) >= target (resp. > target when [strict]).
   The annotation fixes the Bigarray kind, so the accesses compile to
   inline loads; without it [bound] is kind-polymorphic and every step
   of the search is a generic C call. *)
let bound (hashes : int_ba) target ~strict =
  let lo = ref 0 and hi = ref (Bigarray.Array1.dim hashes) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let h = Bigarray.Array1.unsafe_get hashes mid in
    if h < target || (strict && h = target) then lo := mid + 1 else hi := mid
  done;
  !lo

let row_matches s idx keys row =
  let icols = idx.icols in
  let rec go i =
    i >= Array.length icols
    || Column.equal_at s.cols.(icols.(i)) row keys.(i) && go (i + 1)
  in
  go 0

let rec admits_from_col s icols keys i =
  i >= Array.length icols
  || Column.admits s.cols.(icols.(i)) keys.(i) && admits_from_col s icols keys (i + 1)

let admits s icols keys = admits_from_col s icols keys 0

(* Upper bound: range width counts hash collisions too. Callers use it
   as a selectivity estimate, never as an exact cardinality. *)
let probe_count s idx keys =
  if not (admits s idx.icols keys) then 0
  else
    let target = key_hash keys in
    bound idx.hashes target ~strict:true - bound idx.hashes target ~strict:false

let probe_iter s idx keys f =
  let target = key_hash keys in
  let first = bound idx.hashes target ~strict:false in
  let last = bound idx.hashes target ~strict:true in
  for k = first to last - 1 do
    let row = Bigarray.Array1.unsafe_get idx.perm k in
    if row_matches s idx keys row then f (tuple s row)
  done

let dict_probe s icols keys =
  let hits = ref 0 and misses = ref 0 in
  Array.iteri
    (fun i c ->
      let col = s.cols.(c) in
      if Column.is_dict col then
        if Column.admits col keys.(i) then incr hits else incr misses)
    icols;
  (!hits, !misses)

let cached_indexes s = Mutex.protect s.ilock (fun () -> Hashtbl.length s.icache)

let rec admits_from s (t : Tuple.t) c =
  c >= Array.length t || (Column.admits s.cols.(c) t.(c) && admits_from s t (c + 1))

(* Whole-tuple membership via the all-columns index. Segments built from
   relations are duplicate-free, so the first (highest) position is the
   only one. A tuple with a value its column cannot hold is rejected
   first: most pending rows carry a fresh id, and asking for them must
   not build the index. *)
let find s t =
  if Array.length t <> arity s || not (admits_from s t 0) then -1
  else
    let idx = whole s in
    let target = key_hash t in
    let last = bound idx.hashes target ~strict:true in
    let rec go k =
      if k >= last then -1
      else
        let row = Bigarray.Array1.unsafe_get idx.perm k in
        if row_matches s idx t row then row else go (k + 1)
    in
    go (bound idx.hashes target ~strict:false)

let mem s t = find s t >= 0

(* ------------------------------------------------------------------ *)
(* Building and bridging *)

module Builder = struct
  type seg = t
  type t = { builders : Column.Builder.t array; mutable bn : int }

  let create ~arity =
    { builders = Array.init arity (fun _ -> Column.Builder.create ()); bn = 0 }

  let add b (t : Tuple.t) =
    if Array.length t <> Array.length b.builders then
      invalid_arg "Segment.Builder.add: arity mismatch";
    for c = 0 to Array.length t - 1 do
      Column.Builder.add b.builders.(c) t.(c)
    done;
    b.bn <- b.bn + 1

  let length b = b.bn
  let finish b = make (Array.map Column.Builder.finish b.builders) b.bn
end

let of_relation r =
  let b = Builder.create ~arity:(Schema.arity (Relation.schema r)) in
  Relation.iter (Builder.add b) r;
  Builder.finish b

let to_relation schema s =
  if Schema.arity schema <> arity s then
    invalid_arg "Segment.to_relation: arity mismatch";
  let r = Relation.create schema in
  for row = 0 to s.n - 1 do
    ignore (Relation.insert r (tuple s row))
  done;
  r

(* ------------------------------------------------------------------ *)
(* Binary blobs (indexes are rebuilt on demand, never serialized). *)

let serialize buf s =
  Column.add_i64 buf s.n;
  Column.add_i64 buf (Array.length s.cols);
  Array.iter (Column.serialize buf) s.cols

let deserialize str pos =
  let n = Column.read_i64 str pos in
  let ncols = Column.read_i64 str pos in
  if n < 0 || ncols < 0 || ncols > 4096 then
    raise (Column.Corrupt "bad segment header");
  let cols = Array.init ncols (fun _ -> Column.deserialize str pos) in
  Array.iter
    (fun c ->
      if Column.length c <> n then
        raise (Column.Corrupt "column length mismatch"))
    cols;
  make cols n
