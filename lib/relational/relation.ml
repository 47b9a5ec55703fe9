(* Lookup-only tables: nothing iterates them, so they hash without
   allocating. *)
module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash_noalloc
end)

type index = int list Vtbl.t
(* value on the indexed column -> positions (most recent first) *)

type t = {
  schema : Schema.relation;
  mutable tuples : Tuple.t array;
  mutable len : int;
  present : unit Tuple.Lookup.t;
  indexes : (int, index) Hashtbl.t;
}

let create schema =
  {
    schema;
    tuples = [||];
    len = 0;
    present = Tuple.Lookup.create 64;
    indexes = Hashtbl.create 4;
  }

let schema r = r.schema
let name r = r.schema.Schema.name
let cardinality r = r.len

let grow r =
  let cap = Array.length r.tuples in
  if r.len >= cap then begin
    let ncap = max 16 (2 * cap) in
    let nt = Array.make ncap [||] in
    Array.blit r.tuples 0 nt 0 r.len;
    r.tuples <- nt
  end

let index_add idx v pos =
  let prev = Option.value (Vtbl.find_opt idx v) ~default:[] in
  Vtbl.replace idx v (pos :: prev)

let insert r t =
  if Tuple.arity t <> Schema.arity r.schema then
    invalid_arg
      (Printf.sprintf "Relation.insert: arity mismatch for %s (got %d, want %d)"
         (name r) (Tuple.arity t)
         (Schema.arity r.schema));
  if Tuple.Lookup.mem r.present t then false
  else begin
    grow r;
    r.tuples.(r.len) <- t;
    Tuple.Lookup.add r.present t ();
    if Hashtbl.length r.indexes > 0 then
      Hashtbl.iter (fun col idx -> index_add idx t.(col) r.len) r.indexes;
    r.len <- r.len + 1;
    true
  end

let mem r t = Tuple.Lookup.mem r.present t

let ensure_index r col =
  match Hashtbl.find_opt r.indexes col with
  | Some idx -> idx
  | None ->
      let idx = Vtbl.create (max 16 r.len) in
      for i = 0 to r.len - 1 do
        index_add idx r.tuples.(i).(col) i
      done;
      Hashtbl.replace r.indexes col idx;
      idx

(* One access path over the tail: the index of the lowest bound column
   (positions most recent first) filtered by the other bound columns. *)
let prepare r cols =
  if Array.length cols = 0 then
    {
      Source.count = (fun _ -> r.len);
      iter =
        (fun _ f ->
          for i = 0 to r.len - 1 do
            f r.tuples.(i)
          done);
    }
  else
    let idx = ensure_index r cols.(0) in
    let positions keys =
      match Vtbl.find idx keys.(0) with l -> l | exception Not_found -> []
    in
    let rec matches (t : Tuple.t) keys i =
      i >= Array.length cols
      || Value.equal t.(cols.(i)) keys.(i) && matches t keys (i + 1)
    in
    {
      Source.count = (fun keys -> List.length (positions keys));
      iter =
        (fun keys f ->
          List.iter
            (fun i ->
              let t = r.tuples.(i) in
              if matches t keys 1 then f t)
            (positions keys));
    }

let fold f r acc =
  let acc = ref acc in
  for i = 0 to r.len - 1 do
    acc := f r.tuples.(i) !acc
  done;
  !acc

let iter f r =
  for i = 0 to r.len - 1 do
    f r.tuples.(i)
  done

let to_list r = List.rev (fold List.cons r [])

let pp ppf r =
  Format.fprintf ppf "@[<v 2>%a:@ %a@]" Schema.pp_relation r.schema
    (Format.pp_print_list Tuple.pp)
    (to_list r)
