(** A mutable relation instance: a set of ground tuples with lazily built
    per-column hash indexes.

    Relations are {e sets}: inserting a duplicate tuple is a no-op. This
    matches the paper's model, where a blockchain database's current state
    is a set of relations and transactions insert sets of tuples. The
    store is append-only (blockchains never delete), so indexes are
    maintained incrementally and never invalidated. *)

type t

val create : Schema.relation -> t
val schema : t -> Schema.relation
val name : t -> string
val cardinality : t -> int

val insert : t -> Tuple.t -> bool
(** [insert r t] adds [t]; returns [false] if it was already present.
    Raises [Invalid_argument] on an arity mismatch. *)

val mem : t -> Tuple.t -> bool

val prepare : t -> int array -> Source.probe
(** The {!Source.probe} for the given strictly ascending bound columns:
    it iterates the tuples agreeing with every key, most recent first,
    through (and if needed builds) a hash index on the lowest bound
    column; its count is that index's posting length, an upper bound.
    Over no column it counts {!cardinality} and iterates in insertion
    order. The handle stays valid across later inserts. *)

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Tuple.t -> unit) -> t -> unit
val to_list : t -> Tuple.t list
val pp : Format.formatter -> t -> unit
