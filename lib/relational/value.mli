(** Ground values stored in blockchain-database relations.

    Values are the leaves of the data model of Section 4 of the paper:
    relations hold ground tuples of values, and denial constraints compare
    values to one another and to constants. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

val compare : t -> t -> int
(** Total order over all values (constructor order first, then payload).
    Used for indexing and set containers; not the semantic comparison used
    by query predicates (see {!lt}). *)

val equal : t -> t -> bool

val hash : t -> int
(** Hash compatible with {!equal}; suitable for [Hashtbl]. It hashes a
    (tag, payload) pair it builds on each call. *)

val hash_noalloc : t -> int
(** Another hash compatible with {!equal}, of the payload alone, so it
    allocates nothing. It differs from {!hash}: tables whose iteration
    order or stored hashes are observable (segment indexes, [Tuple.Tbl])
    keep {!hash}; lookup-only tables use this one. *)

val lt : t -> t -> bool
(** Semantic strict order used by query comparisons ([<], [>]).
    Numeric values compare numerically ([Int] and [Float] interoperate);
    strings and booleans compare within their own type. Comparing
    incomparable values (e.g. a string to an int, or anything to [Null])
    yields [false], mirroring SQL's three-valued logic collapsing to
    false in a boolean context. *)

val is_numeric : t -> bool

val to_float : t -> float option
(** Numeric view of a value, when it has one. *)

val add : t -> t -> t
(** Numeric addition for aggregation ([sum]). [Int]+[Int] stays [Int];
    any [Float] operand promotes the result. Adding a non-numeric value
    raises [Invalid_argument]. *)

val zero : t
(** Additive identity for {!add} ([Int 0]). *)

val max_v : t -> t -> t
(** Semantic maximum of two values under {!lt}'s order. *)

val min_v : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Prints values in the syntax accepted by the query parser: strings
    are double-quoted with escapes; floats print either with a decimal
    point (integer-valued) or as the shortest decimal string that
    parses back to the identical bits, so printing never loses
    precision. *)

val to_string : t -> string

val write_binary : Buffer.t -> t -> unit
(** Tagged little-endian binary encoding, used by the snapshot format. *)

val read_binary : string -> int ref -> t
(** Reads one {!write_binary}-encoded value at [!pos], advancing [pos].
    Allocates the value alone. Raises [Invalid_argument] on a malformed
    or truncated encoding (never reads out of bounds). *)
