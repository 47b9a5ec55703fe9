type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

let tag = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | _ -> Int.compare (tag a) (tag b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 0
  | Bool b -> if b then 1 else 2
  | Int i -> Hashtbl.hash (2, i)
  | Float f -> Hashtbl.hash (3, f)
  | Str s -> Hashtbl.hash (4, s)

let hash_noalloc = function
  | Null -> 0
  | Bool b -> if b then 1 else 2
  | Int i -> Hashtbl.hash i
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Bool _ | Str _ -> None

let is_numeric v = match v with Int _ | Float _ -> true | _ -> false

let lt a b =
  match (a, b) with
  | Int x, Int y -> x < y
  | Str x, Str y -> x < y
  | Bool x, Bool y -> (not x) && y
  | (Int _ | Float _), (Int _ | Float _) -> (
      match (to_float a, to_float b) with
      | Some x, Some y -> x < y
      | _ -> false)
  | _ -> false

let add a b =
  match (a, b) with
  | Int x, Int y -> Int (x + y)
  | (Int _ | Float _), (Int _ | Float _) -> (
      match (to_float a, to_float b) with
      | Some x, Some y -> Float (x +. y)
      | _ -> invalid_arg "Value.add: non-numeric operand")
  | _ -> invalid_arg "Value.add: non-numeric operand"

let zero = Int 0
let max_v a b = if lt a b then b else a
let min_v a b = if lt b a then b else a

let pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Format.fprintf ppf "%.1f" f
      else begin
        (* Shortest representation that parses back to the same float
           (bit-exact, nan included): try ascending precision and stop
           at the first fixpoint. 17 significant digits always suffice
           for a binary64, so the loop terminates. *)
        let rec shortest p =
          let s = Printf.sprintf "%.*g" p f in
          if p >= 17 || Float.equal (float_of_string s) f then s
          else shortest (p + 1)
        in
        Format.pp_print_string ppf (shortest 1)
      end
  | Str s -> Format.fprintf ppf "%S" s

let to_string v = Format.asprintf "%a" pp v

(* Binary encoding (little-endian), used by the snapshot format. *)

let write_binary buf = function
  | Null -> Buffer.add_uint8 buf 0
  | Bool false -> Buffer.add_uint8 buf 1
  | Bool true -> Buffer.add_uint8 buf 2
  | Int i ->
      Buffer.add_uint8 buf 3;
      Buffer.add_int64_le buf (Int64.of_int i)
  | Float f ->
      Buffer.add_uint8 buf 4;
      Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Str s ->
      Buffer.add_uint8 buf 5;
      Buffer.add_int64_le buf (Int64.of_int (String.length s));
      Buffer.add_string buf s

let malformed () = invalid_arg "Value.read_binary"

(* Payload reads go through [Int64.to_int] and [Int64.float_of_bits]
   straight from the string, so the only block allocated is the value. *)
let read_binary s pos =
  let p = !pos and len = String.length s in
  if p >= len then malformed ();
  let tag = Char.code (String.unsafe_get s p) in
  if tag <= 2 then begin
    pos := p + 1;
    match tag with 0 -> Null | 1 -> Bool false | _ -> Bool true
  end
  else begin
    if tag > 5 || p + 9 > len then malformed ();
    let payload = p + 1 in
    match tag with
    | 3 ->
        pos := p + 9;
        Int (Int64.to_int (String.get_int64_le s payload))
    | 4 ->
        pos := p + 9;
        Float (Int64.float_of_bits (String.get_int64_le s payload))
    | _ ->
        let n = Int64.to_int (String.get_int64_le s payload) in
        if n < 0 || n > len - p - 9 then malformed ();
        pos := p + 9 + n;
        Str (String.sub s (p + 9) n)
  end
