(* One attribute of an immutable columnar segment. Homogeneous Int and
   Float columns are stored unboxed in Bigarrays; everything else (and
   mixed-type columns — attributes are untyped in this model) falls back
   to dictionary encoding: distinct values are interned once and rows
   store small integer codes whose width is chosen by dictionary size.
   All payloads live off the OCaml heap, so a 10M-row segment costs the
   GC nothing. *)

(* Dictionary tables (the builder's and the probe-time [by_value]) only
   look values up, so they hash without allocating; [vhash] keeps
   [Value.hash], which segment index orders are built from. *)
module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash_noalloc
end)

type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type float_ba =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type codes =
  | C8 of (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
  | C16 of
      (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
  | C64 of int_ba

type dict = {
  codes : codes;
  values : Value.t array;  (* code -> interned value *)
  vhash : int array;  (* code -> Value.hash of the value *)
  by_value : int Vtbl.t;  (* value -> code; probe-time encoding *)
}

type t = Ints of int_ba | Floats of float_ba | Dict of dict

let length = function
  | Ints a -> Bigarray.Array1.dim a
  | Floats a -> Bigarray.Array1.dim a
  | Dict d -> (
      match d.codes with
      | C8 a -> Bigarray.Array1.dim a
      | C16 a -> Bigarray.Array1.dim a
      | C64 a -> Bigarray.Array1.dim a)

let code d row =
  match d.codes with
  | C8 a -> Bigarray.Array1.unsafe_get a row
  | C16 a -> Bigarray.Array1.unsafe_get a row
  | C64 a -> Bigarray.Array1.unsafe_get a row

let get t row =
  match t with
  | Ints a -> Value.Int (Bigarray.Array1.get a row)
  | Floats a -> Value.Float (Bigarray.Array1.get a row)
  | Dict d -> d.values.(code d row)

let is_dict = function Dict _ -> true | Ints _ | Floats _ -> false

(* Can [v] occur in the column at all? False for the wrong type of an
   unboxed column and for a value absent from the dictionary: a probe
   for it is empty. *)
let admits t v =
  match (t, v) with
  | Ints _, Value.Int _ | Floats _, Value.Float _ -> true
  | Dict d, _ -> Vtbl.mem d.by_value v
  | (Ints _ | Floats _), _ -> false

(* [hash_at t row = Value.hash (get t row)] without boxing the value,
   so positional index builds hash exactly like probe keys do. *)
let hash_at t row =
  match t with
  | Ints a -> Hashtbl.hash (2, Bigarray.Array1.unsafe_get a row)
  | Floats a -> Hashtbl.hash (3, Bigarray.Array1.unsafe_get a row)
  | Dict d -> d.vhash.(code d row)

let equal_at t row v =
  match t with
  | Ints a -> (
      match v with
      | Value.Int i -> Bigarray.Array1.unsafe_get a row = i
      | _ -> false)
  | Floats a -> (
      match v with
      | Value.Float f -> Float.compare (Bigarray.Array1.unsafe_get a row) f = 0
      | _ -> false)
  | Dict d -> Value.equal d.values.(code d row) v

(* Resident bytes, estimated: Bigarray payloads exactly, dictionary
   entries by a boxed-value approximation. *)
let value_bytes = function
  | Value.Str s -> 24 + String.length s
  | Value.Float _ -> 16
  | Value.Int _ | Value.Bool _ | Value.Null -> 8

let bytes t =
  let n = length t in
  match t with
  | Ints _ | Floats _ -> 8 * n
  | Dict d ->
      let w = match d.codes with C8 _ -> 1 | C16 _ -> 2 | C64 _ -> 8 in
      (w * n)
      + Array.fold_left (fun acc v -> acc + 16 + value_bytes v) 0 d.values

let dict_size = function Dict d -> Array.length d.values | _ -> 0

(* ------------------------------------------------------------------ *)

module Builder = struct
  type col = t

  (* While every value so far is an [Int] ([raw]), [codes] holds the
     payloads themselves and nothing is hashed; the first other value
     interns them, in order, and from then on [codes] holds dictionary
     codes — the same dictionary interning on the fly would have built. *)
  type t = {
    mutable n : int;
    mutable codes : int array;  (* growable; valid up to [n] *)
    mutable raw : bool;
    by_value : int Vtbl.t;
    mutable values : Value.t array;  (* growable; code -> value up to [nvalues] *)
    mutable nvalues : int;
    mutable all_float : bool;
  }

  let create () =
    {
      n = 0;
      codes = [||];
      raw = true;
      by_value = Vtbl.create 64;
      values = [||];
      nvalues = 0;
      all_float = true;
    }

  let intern b v =
    match Vtbl.find b.by_value v with
    | c -> c
    | exception Not_found ->
        let c = b.nvalues in
        Vtbl.replace b.by_value v c;
        if c >= Array.length b.values then begin
          let nv = Array.make (max 16 (2 * c)) Value.Null in
          Array.blit b.values 0 nv 0 c;
          b.values <- nv
        end;
        b.values.(c) <- v;
        b.nvalues <- c + 1;
        (match v with Value.Float _ -> () | _ -> b.all_float <- false);
        c

  let add b v =
    if b.n >= Array.length b.codes then begin
      let ncap = max 64 (2 * Array.length b.codes) in
      let nc = Array.make ncap 0 in
      Array.blit b.codes 0 nc 0 b.n;
      b.codes <- nc
    end;
    (match v with
    | Value.Int i when b.raw -> b.codes.(b.n) <- i
    | _ ->
        if b.raw then begin
          b.raw <- false;
          for k = 0 to b.n - 1 do
            b.codes.(k) <- intern b (Value.Int b.codes.(k))
          done
        end;
        b.codes.(b.n) <- intern b v);
    b.n <- b.n + 1

  let length b = b.n

  let finish b =
    let values = Array.sub b.values 0 b.nvalues in
    let n = b.n in
    if b.raw && n > 0 then begin
      let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set a i b.codes.(i)
      done;
      Ints a
    end
    else if b.all_float && b.nvalues > 0 then begin
      let decode = Array.map (function Value.Float f -> f | _ -> 0.0) values in
      let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set a i decode.(b.codes.(i))
      done;
      Floats a
    end
    else begin
      let codes =
        if b.nvalues <= 0x100 then begin
          let a =
            Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n
          in
          for i = 0 to n - 1 do
            Bigarray.Array1.unsafe_set a i b.codes.(i)
          done;
          C8 a
        end
        else if b.nvalues <= 0x10000 then begin
          let a =
            Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout n
          in
          for i = 0 to n - 1 do
            Bigarray.Array1.unsafe_set a i b.codes.(i)
          done;
          C16 a
        end
        else begin
          let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
          for i = 0 to n - 1 do
            Bigarray.Array1.unsafe_set a i b.codes.(i)
          done;
          C64 a
        end
      in
      Dict { codes; values; vhash = Array.map Value.hash values; by_value = b.by_value }
    end
end

(* ------------------------------------------------------------------ *)
(* Binary blobs (little-endian; consumed by the snapshot format). *)

let add_i64 buf i = Buffer.add_int64_le buf (Int64.of_int i)

let serialize buf t =
  let n = length t in
  (match t with Ints _ -> Buffer.add_uint8 buf 0
  | Floats _ -> Buffer.add_uint8 buf 1
  | Dict _ -> Buffer.add_uint8 buf 2);
  add_i64 buf n;
  match t with
  | Ints a ->
      for i = 0 to n - 1 do
        add_i64 buf (Bigarray.Array1.get a i)
      done
  | Floats a ->
      for i = 0 to n - 1 do
        Buffer.add_int64_le buf (Int64.bits_of_float (Bigarray.Array1.get a i))
      done
  | Dict d ->
      add_i64 buf (Array.length d.values);
      Array.iter (Value.write_binary buf) d.values;
      let w = match d.codes with C8 _ -> 1 | C16 _ -> 2 | C64 _ -> 8 in
      Buffer.add_uint8 buf w;
      for i = 0 to n - 1 do
        match d.codes with
        | C8 a -> Buffer.add_uint8 buf (Bigarray.Array1.get a i)
        | C16 a -> Buffer.add_uint16_le buf (Bigarray.Array1.get a i)
        | C64 a -> add_i64 buf (Bigarray.Array1.get a i)
      done

exception Corrupt of string

let read_i64 s pos =
  if !pos + 8 > String.length s then raise (Corrupt "truncated int64");
  let v = Int64.to_int (String.get_int64_le s !pos) in
  pos := !pos + 8;
  v

let deserialize s pos =
  let kind =
    if !pos >= String.length s then raise (Corrupt "truncated column")
    else Char.code s.[!pos]
  in
  incr pos;
  let n = read_i64 s pos in
  if n < 0 then raise (Corrupt "negative column length");
  (* Sizes are checked against the bytes left before anything is
     allocated for them. *)
  let left = String.length s - !pos in
  if kind <> 2 && n > left / 8 then raise (Corrupt "truncated column");
  match kind with
  | 0 ->
      let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
      for i = 0 to n - 1 do
        Bigarray.Array1.set a i (read_i64 s pos)
      done;
      Ints a
  | 1 ->
      let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
      for i = 0 to n - 1 do
        if !pos + 8 > String.length s then raise (Corrupt "truncated floats");
        Bigarray.Array1.set a i (Int64.float_of_bits (String.get_int64_le s !pos));
        pos := !pos + 8
      done;
      Floats a
  | 2 ->
      let nd = read_i64 s pos in
      if nd < 0 then raise (Corrupt "negative dictionary size");
      if nd > String.length s - !pos then raise (Corrupt "truncated dictionary");
      (* Filled in place from an immediate: [Array.init] would seed a
         large array with a young value, and the runtime empties the
         minor heap before it makes such an array. *)
      let values = Array.make nd Value.Null in
      for c = 0 to nd - 1 do
        match Value.read_binary s pos with
        | v -> values.(c) <- v
        | exception Invalid_argument _ -> raise (Corrupt "bad dictionary value")
      done;
      let by_value = Vtbl.create (max 16 nd) in
      Array.iteri (fun c v -> Vtbl.replace by_value v c) values;
      let w =
        if !pos >= String.length s then raise (Corrupt "truncated code width")
        else Char.code s.[!pos]
      in
      incr pos;
      let need = w * n in
      if !pos + need > String.length s then raise (Corrupt "truncated codes");
      let check c = if c < 0 || c >= nd then raise (Corrupt "code out of range") in
      let codes =
        match w with
        | 1 ->
            let a =
              Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n
            in
            for i = 0 to n - 1 do
              let c = Char.code s.[!pos + i] in
              check c;
              Bigarray.Array1.set a i c
            done;
            pos := !pos + n;
            C8 a
        | 2 ->
            let a =
              Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout n
            in
            for i = 0 to n - 1 do
              let c = String.get_uint16_le s (!pos + (2 * i)) in
              check c;
              Bigarray.Array1.set a i c
            done;
            pos := !pos + (2 * n);
            C16 a
        | 8 ->
            let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
            for i = 0 to n - 1 do
              let c = Int64.to_int (String.get_int64_le s (!pos + (8 * i))) in
              check c;
              Bigarray.Array1.set a i c
            done;
            pos := !pos + (8 * n);
            C64 a
        | _ -> raise (Corrupt "bad code width")
      in
      Dict { codes; values; vhash = Array.map Value.hash values; by_value }
  | _ -> raise (Corrupt "bad column kind")
