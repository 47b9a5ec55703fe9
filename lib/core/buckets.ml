module R = Relational

(* A row keyed on its values at [pos]: two keys are equal when their
   values agree position by position, whatever the positions. The hash
   is taken once per key, not once per table operation. *)
module Key = struct
  type t = { row : R.Tuple.t; pos : int array; hash : int }

  let make row pos = { row; pos; hash = R.Tuple.hash_on row pos }
  let equal a b = a.hash = b.hash && R.Tuple.agree_on a.row a.pos b.row b.pos
  let hash k = k.hash
end

module Tbl = Hashtbl.Make (Key)

type 'a bucket = { mutable left : 'a array; mutable right : 'a array }
type 'a t = 'a bucket Tbl.t

let create n = Tbl.create n
let find t row pos = Tbl.find_opt t (Key.make row pos)

let get t row pos =
  let key = Key.make row pos in
  match Tbl.find t key with
  | b -> b
  | exception Not_found ->
      let b = { left = [||]; right = [||] } in
      Tbl.add t key b;
      b

let remove t row pos = Tbl.remove t (Key.make row pos)
let iter t f = Tbl.iter (fun _ b -> f b) t

(* All rows of one transaction arrive together, so a transaction
   already on a side is its last entry. *)
let push x side =
  let n = Array.length side in
  if n > 0 && side.(n - 1) == x then side
  else begin
    let grown = Array.make (n + 1) x in
    Array.blit side 0 grown 0 n;
    grown
  end

let add_left b x = b.left <- push x b.left
let add_right b x = b.right <- push x b.right

let drop x side =
  if Array.memq x side then Array.of_list (List.filter (( != ) x) (Array.to_list side))
  else side

let remove_member b x =
  b.left <- drop x b.left;
  b.right <- drop x b.right

let is_empty b = Array.length b.left = 0 && Array.length b.right = 0

(* When both sides are non-empty, every transaction of the bucket meets
   every other through some pair: each left one is linked to each right
   one but itself, and a transaction on both sides is linked to every
   other. So a star from one right-side transaction spans them. *)
let star ~left ~right f =
  if Array.length left > 0 && Array.length right > 0 then begin
    let hub = right.(0) in
    Array.iter (fun j -> if j != hub then f hub j) left;
    Array.iter (fun j -> if j != hub then f hub j) right
  end

let iter_links b f = star ~left:b.left ~right:b.right f
