(** Ground tuples: fixed-arity arrays of {!Value.t}.

    Tuples are treated as immutable once inserted into a relation; the
    array representation is exposed for efficient positional access by
    the query evaluator, but callers must not mutate stored tuples. *)

type t = Value.t array

val make : Value.t list -> t
val arity : t -> int
val get : t -> int -> Value.t

val project : t -> int list -> t
(** [project t positions] extracts the listed attribute positions, in
    order. The identity projection [[0; ...; arity-1]] returns the
    input array itself (no allocation); callers must not mutate the
    result. Raises [Invalid_argument] on an out-of-range position. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val hash_noalloc : t -> int
(** A hash compatible with {!equal} built from {!Value.hash_noalloc}:
    no allocation, but not {!hash} (see {!Value.hash_noalloc}). *)

val hash_on : t -> int array -> int
(** [hash_on t pos]: a hash of [t]'s values at positions [pos], in
    order, without building the projection and without allocating.
    Tuples that agree there hash alike; it is not {!hash} of the
    projection. *)

val agree_on : t -> int array -> t -> int array -> bool
(** [agree_on a pa b pb]: [a]'s value at [pa.(i)] equals [b]'s at
    [pb.(i)] for every [i]. *)

val pp : Format.formatter -> t -> unit
(** Prints as [(v1, v2, ...)]. *)

val to_string : t -> string

module Hashed : Hashtbl.HashedType with type t = t
module Tbl : Hashtbl.S with type key = t

module Lookup : Hashtbl.S with type key = t
(** Keyed by {!hash_noalloc}: for tables that are only looked up (and
    copied), never iterated where the order shows, so a key costs no
    allocation. {!Tbl}'s iteration order follows {!hash}. *)

module Set : Set.S with type elt = t
