(** One attribute of an immutable columnar segment.

    Homogeneous [Int] and [Float] columns are stored unboxed in
    [Bigarray]s; mixed-type columns (and [Str]/[Bool]/[Null]) are
    dictionary-encoded — distinct values interned once, rows holding
    integer codes whose width (8/16/64 bit) follows dictionary size.
    Payloads live off the OCaml heap, so a multi-million-row segment is
    invisible to the GC. *)

type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val length : t -> int
val get : t -> int -> Value.t
val is_dict : t -> bool

val admits : t -> Value.t -> bool
(** Can the value occur in the column at all? [false] for the wrong type
    of an unboxed column and for a value absent from the dictionary —
    any probe for it is empty. O(1) for unboxed columns, one hash lookup
    for dictionary columns. *)

val hash_at : t -> int -> int
(** [hash_at c row = Value.hash (get c row)], computed without boxing
    the value. *)

val equal_at : t -> int -> Value.t -> bool
(** [equal_at c row v = Value.equal (get c row) v] without boxing. *)

val bytes : t -> int
(** Estimated resident bytes: Bigarray payloads exactly, dictionary
    entries by a boxed-value approximation. *)

val dict_size : t -> int
(** Number of interned dictionary values; 0 for unboxed columns. *)

(** Streaming construction: values are dictionary-encoded as they
    arrive; if every value turns out to be [Int] (resp. [Float]) the
    finished column is unboxed instead. *)
module Builder : sig
  type col = t
  type t

  val create : unit -> t
  val add : t -> Value.t -> unit
  val length : t -> int
  val finish : t -> col
end

(** {2 Binary blobs} — little-endian, consumed by the snapshot format. *)

exception Corrupt of string

val serialize : Buffer.t -> t -> unit

val deserialize : string -> int ref -> t
(** Raises {!Corrupt} on malformed input (never reads out of bounds). *)

(**/**)

val add_i64 : Buffer.t -> int -> unit
val read_i64 : string -> int ref -> int
