(** The requirement relation of the inclusion dependencies: which pending
    transactions provide the rows a pending transaction requires. It is
    the one structure getMaximal (Fig. 4) and the ind-q-transaction
    graph (§6.2, Prop. 2) both read — in the spirit of the conflict
    hypergraph of Flesca, Furfaro and Parisi, one structure of
    requirements every consistency check consults.

    It has two layers.

    - The {e sweep} layer, from one {!Relational.Check.sweep} of a
      checker prepared on [R]: per pending transaction [T_i], its node
      validity ([R ∪ T_i |= I_fd]), its includability
      ([R ∪ T_i |= I]) and, when it is valid, its {e open} rows — the
      sub rows of an ind whose projection neither [T_i] nor [R]
      supports. The sweep probes [R] for every sub row anyway; it
      reports the open ones instead of stopping at the first.
    - The {e provider} layer, built on first use by one pass that
      buckets every pending sub and sup row per ind in place
      ({!Buckets}): each bucket lists the transactions that require its
      values (sub rows, the left side) and those that provide them (sup
      rows, the right side). An open row's providers are its bucket's
      right side; the ΘI edges of the ind-q graph join a bucket's
      left-side transactions to its right-side ones.

    A relation describes one pending set over one state. {!add},
    {!remove_last}, {!remove} and {!resweep} keep it so under the
    events of {!Tagged_store.append_tx}/{!Tagged_store.undo} and
    {!Live}; it is equal, up to the order of its lists, to {!create}
    over the new database. Reads may run on several domains at once
    (the provider layer is built once, under a lock); maintenance may
    not overlap them. *)

type t

val create : Relational.Check.checker -> Bcdb.t -> t
(** The sweep layer: one {!Relational.Check.sweep} of [checker], which
    must hold [db]'s constraints prepared on [db]'s state. The provider
    layer is left for first use. *)

val tx_count : t -> int

val is_valid : t -> int -> bool
(** [R ∪ T_i |= I_fd]. *)

val is_includable : t -> int -> bool
(** [R ∪ T_i |= I]: valid, with no open row. *)

val node_ok : t -> bool array
(** {!is_valid} per transaction, in a fresh array: O(pending). *)

val includable : t -> bool array
(** {!is_includable} per transaction, in a fresh array. *)

val linked : t -> bool
(** Whether the provider layer has been built. *)

val link : t -> unit
(** Build the provider layer now (every function below does it on
    first use). *)

val open_rows : t -> int -> (int * Relational.Tuple.t * int list) list
(** [open_rows t i]: each open row of a valid [T_i] — the index of its
    ind (in the order of {!Bcdb.inds}), the row, and its pending
    providers, ascending (never [i] itself). [[]] for an invalid
    transaction. *)

type member
(** A pending transaction as the provider layer holds it. *)

val id : member -> int
(** Its id now. Maintenance renumbers members in place: read the id
    during a call, do not keep the member. *)

val iter_needs : t -> int -> (member array -> unit) -> unit
(** The providers of each of [T_i]'s open rows, in ascending id order:
    what getMaximal's propagation waits on. The array belongs to the
    relation: read it during the call, do not keep it. Allocates
    nothing. *)

val iter_links : t -> (int -> int -> unit) -> unit
(** Pairs of transactions whose connected components are exactly those
    of the ΘI edges: a star per bucket, linear in the relation. *)

val neighbours : t -> int -> int list
(** The transactions a ΘI edge joins to [i], ascending. *)

val edges : t -> (int * int) list
(** The ΘI edge set: the pairs [(i, j)], [i < j], such that one of them
    provides a row the other requires (whether or not [R] or the
    requiring transaction supports it too), sorted. Quadratic in a
    bucket's size, like the edges themselves. *)

(** {2 Maintenance} *)

val add : t -> Relational.Check.checker -> Pending.t -> unit
(** Append one transaction (the next id): one {!Relational.Check.outcome}
    of [checker] judges it and reports its open rows, and, when the
    provider layer is built, its rows join their buckets. The checker
    must be prepared on the same state as the relation's. Linear in the
    transaction's rows (amortized: the member table grows by doubling). *)

val remove_last : t -> unit
(** Undo the last {!add}. *)

val remove : t -> int -> unit
(** Drop transaction [id] and re-pack the ids above it (down by one):
    an eviction. The state is unchanged, so the survivors' validity and
    open rows are; buckets emptied by the removal leave their tables.
    Linear in [id]'s rows, their buckets and the pending count, and
    allocates no O(pending) array: no bucket is rewritten for the
    re-pack. *)

val resweep : t -> Relational.Check.checker -> unit
(** The state changed (a confirmation or rows appended to [R]): judge
    every transaction again with [checker], prepared on the new state,
    and re-attach the open rows it reports to their buckets. The
    buckets depend on pending rows only and are kept. *)
