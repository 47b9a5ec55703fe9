module Smap = Map.Make (String)

(* Hybrid storage: each relation is an optional immutable columnar
   [Segment.t] (the bulk, shared structurally by [copy]) plus a mutable
   [Relation.t] tail for rows inserted afterwards. Databases built row
   by row simply have empty segments. *)
type t = {
  catalog : Schema.t;
  segs : Segment.t Smap.t;
  relations : Relation.t Smap.t;
}

let fresh_tails catalog =
  List.fold_left
    (fun acc r -> Smap.add r.Schema.name (Relation.create r) acc)
    Smap.empty (Schema.relations catalog)

let create catalog = { catalog; segs = Smap.empty; relations = fresh_tails catalog }

let of_segments catalog segs =
  let segs =
    List.fold_left
      (fun acc (name, seg) ->
        let schema =
          match Schema.find_opt catalog name with
          | Some s -> s
          | None -> invalid_arg ("Database.of_segments: unknown relation " ^ name)
        in
        if Schema.arity schema <> Segment.arity seg then
          invalid_arg ("Database.of_segments: arity mismatch for " ^ name);
        Smap.add name seg acc)
      Smap.empty segs
  in
  { catalog; segs; relations = fresh_tails catalog }

let catalog t = t.catalog
let relation t name = Smap.find name t.relations
let relation_opt t name = Smap.find_opt name t.relations
let segment t name = Smap.find_opt name t.segs

let seg_len t name =
  match Smap.find_opt name t.segs with Some s -> Segment.length s | None -> 0

let insert t name tuple =
  (match Smap.find_opt name t.segs with
  | Some seg when Segment.mem seg tuple -> false
  | _ -> true)
  && Relation.insert (relation t name) tuple

let insert_all t rows =
  List.iter (fun (name, tuple) -> ignore (insert t name tuple)) rows

let total_cardinality t =
  Smap.fold
    (fun name r acc -> acc + Relation.cardinality r + seg_len t name)
    t.relations 0

(* Tails are append-only sets, so their total cardinality is a faithful
   mutation stamp — it moves on every in-place insert, through any code
   path, and never repeats a value after a change. *)
let generation t =
  Smap.fold (fun _ r acc -> acc + Relation.cardinality r) t.relations 0

let iter_tuples t name f =
  (match Smap.find_opt name t.segs with
  | Some seg -> Seq.iter f (Segment.tuple_seq seg)
  | None -> ());
  Relation.iter f (relation t name)

(* Columnar view of one relation: the segment itself when the tail is
   empty (zero cost — this is how a freshly loaded snapshot reaches the
   tagged store without a rebuild), otherwise segment + tail re-encoded. *)
let to_segment t name =
  let tail = relation t name in
  match Smap.find_opt name t.segs with
  | Some seg when Relation.cardinality tail = 0 -> seg
  | seg ->
      let arity = Schema.arity (Relation.schema tail) in
      let b = Segment.Builder.create ~arity in
      (match seg with
      | Some s -> Seq.iter (Segment.Builder.add b) (Segment.tuple_seq s)
      | None -> ());
      Relation.iter (Segment.Builder.add b) tail;
      Segment.Builder.finish b

let copy t =
  (* Segments are immutable: share them; deep-copy only the tails. *)
  let fresh = { t with relations = fresh_tails t.catalog } in
  Smap.iter
    (fun name r ->
      Relation.iter
        (fun tu -> ignore (Relation.insert (relation fresh name) tu))
        r)
    t.relations;
  fresh

let mem t name tu =
  (match Smap.find_opt name t.segs with
  | Some seg -> Segment.mem seg tu
  | None -> false)
  || Relation.mem (relation t name) tu

(* Segment matches first (descending position), then the tail's. *)
let prepare t name cols =
  let tail = Relation.prepare (relation t name) cols in
  match Smap.find_opt name t.segs with
  | None -> tail
  | Some seg when Array.length cols = 0 ->
      {
        Source.count = (fun keys -> Segment.length seg + tail.Source.count keys);
        iter =
          (fun keys f ->
            Seq.iter f (Segment.tuple_seq seg);
            tail.Source.iter keys f);
      }
  | Some seg ->
      let idx = Segment.index seg (Array.to_list cols) in
      {
        Source.count =
          (fun keys -> Segment.probe_count seg idx keys + tail.Source.count keys);
        iter =
          (fun keys f ->
            Segment.probe_iter seg idx keys f;
            tail.Source.iter keys f);
      }

let source t =
  {
    Source.catalog = t.catalog;
    prepare = prepare t;
    mem = mem t;
  }

let pp ppf t =
  let pp_rel ppf (name, r) =
    Format.fprintf ppf "@[<v 2>%a:@ %a@]" Schema.pp_relation (Relation.schema r)
      (Format.pp_print_iter (fun f name -> iter_tuples t name f) Tuple.pp)
      name
  in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list pp_rel)
    (Smap.bindings t.relations)
