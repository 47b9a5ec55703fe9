(** An immutable columnar segment: one {!Column} per attribute plus
    lazily built hash indexes shared by every referent.

    Indexes are uniform: a permutation of row positions sorted by the
    hash of the indexed projection (the hash reproduces {!Tuple.hash}'s
    scheme over the indexed columns in ascending order). The sort is a
    stable LSD radix sort seeded with rows in descending order, so rows
    with equal hashes stay in {e descending} position order — the
    ordering contract the tagged store's probes expose. Probes
    binary-search the hash array; ranges over-approximate (collisions)
    and {!probe_iter} filters the false positives out positionally. *)

type t

val length : t -> int
val arity : t -> int
val get : t -> int -> int -> Value.t
(** [get s row col]. *)

val tuple : t -> int -> Tuple.t
(** Materializes one row as a boxed tuple. *)

val tuple_seq : t -> Tuple.t Seq.t
(** All rows in position order, materialized lazily. *)

val bytes : t -> int
(** Estimated resident bytes of the column payloads (indexes excluded,
    so the figure is stable regardless of probe history). *)

val dict_size : t -> int
(** Total interned dictionary values across columns. *)

(** {2 Probing}

    A probe passes one value per indexed column, in the index's
    (ascending) column order, as a [Value.t array]: no bind list, no
    encoded key record, no [Seq]. *)

type index

val index : t -> int list -> index
(** The index over the given columns (sorted and deduplicated first).
    Cached; built on first use under the segment's lock. The returned
    index is immutable — memoize it per store for lock-free probing. *)

val probe_count : t -> index -> Value.t array -> int
(** Upper bound on matching rows: the width of the probe hash's range,
    collisions included, or 0 when some value cannot occur in its
    column ({!Column.admits}). A selectivity estimate only. *)

val probe_iter : t -> index -> Value.t array -> (Tuple.t -> unit) -> unit
(** Calls [f] on exactly the matching rows, materialized, by descending
    position. The keys are read while iterating: do not mutate them
    until it returns. *)

val admits : t -> int array -> Value.t array -> bool
(** [admits s cols keys]: whether every [keys.(i)] can occur in column
    [cols.(i)] ({!Column.admits}). Touches no index: a probe that is
    refused here is empty, so asking it need not build one. *)

val dict_probe : t -> int array -> Value.t array -> int * int
(** [dict_probe s cols keys]: [(hits, misses)] over the probed columns
    that are dictionary-encoded — a miss means the value is absent from
    the column's dictionary. Touches no index. *)

val cached_indexes : t -> int
(** How many indexes the segment has built so far (its cache size). *)

val find : t -> Tuple.t -> int
(** The position holding exactly this tuple, or [-1]. A tuple with a
    value its column does not admit ({!Column.admits}: the wrong type
    for an unboxed column, absent from a dictionary) is [-1] at once;
    only the others go through the all-columns index, built on the
    first such call and fetched once per segment. *)

val mem : t -> Tuple.t -> bool

(** {2 Building and bridging} *)

module Builder : sig
  type seg = t
  type t

  val create : arity:int -> t
  val add : t -> Tuple.t -> unit
  val length : t -> int
  val finish : t -> seg
end

val of_relation : Relation.t -> t
(** Positions follow the relation's insertion order. *)

val to_relation : Schema.relation -> t -> Relation.t

(** {2 Binary blobs} — indexes are rebuilt on demand, never stored. *)

val serialize : Buffer.t -> t -> unit

val deserialize : string -> int ref -> t
(** Raises {!Column.Corrupt} on malformed input. *)

(**/**)

val whole_built : t -> bool
(** Whether the all-columns index has been built (testing). *)

val index_order : index -> int array
(** The index's row permutation: positions by ascending hash, ties by
    descending position (testing). *)
