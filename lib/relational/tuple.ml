type t = Value.t array

let make vs = Array.of_list vs
let arity = Array.length
let get t i = t.(i)

let project t positions =
  let n = Array.length t in
  (* Identity projection is common (whole-tuple keys, single-attribute
     relations): return the input unchanged instead of allocating a
     copy. Tuples are immutable by contract, so sharing is safe. *)
  let rec is_identity i = function
    | [] -> i = n
    | p :: rest -> p = i && is_identity (i + 1) rest
  in
  if is_identity 0 positions then t
  else
    let pick i =
      if i < 0 || i >= n then invalid_arg "Tuple.project: position out of range"
      else t.(i)
    in
    Array.of_list (List.map pick positions)

let equal a b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (Value.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let compare a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= Array.length a then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let hash_noalloc (t : t) =
  let h = ref 17 in
  for i = 0 to Array.length t - 1 do
    h := (!h * 31) + Value.hash_noalloc (Array.unsafe_get t i)
  done;
  !h

let rec hash_from (t : t) pos i h =
  if i >= Array.length pos then h
  else hash_from t pos (i + 1) ((h * 31) + Value.hash_noalloc t.(pos.(i)))

let hash_on t pos = hash_from t pos 0 17

let rec agree_from (a : t) pa (b : t) pb i =
  i >= Array.length pa
  || (Value.equal a.(pa.(i)) b.(pb.(i)) && agree_from a pa b pb (i + 1))

let agree_on a pa b pb = agree_from a pa b pb 0

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (Array.to_list t)

let to_string t = Format.asprintf "%a" pp t

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Tbl = Hashtbl.Make (Hashed)

module Lookup = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash_noalloc
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
