(** Pending rows bucketed by their values at given positions, hashed and
    compared in place ({!Relational.Tuple.hash_on}/[agree_on], keys of a
    stdlib [Hashtbl.Make]): no projection is built. A row enters a
    bucket on its {e left} or {e right} side — the two sides of an
    equality constraint [lrel[X̄] = rrel[Ȳ]], or the sub and sup sides
    of an inclusion dependency — and each side lists the transactions
    that put a row there. Rows of one bucket may be keyed on different
    positions: an [lrel] row at [X̄] and an [rrel] row at [Ȳ] share a
    bucket when their values there agree. A transaction is any value
    ['a]; two are the same when physically equal (for [int] ids, when
    equal). *)

type 'a bucket = private {
  mutable left : 'a array;
      (** Transactions with a left-side row here, in arrival order, each
          once. *)
  mutable right : 'a array;  (** Likewise for the right side. *)
}

type 'a t

val create : int -> 'a t
(** An empty table with room for about [n] buckets. *)

val find : 'a t -> Relational.Tuple.t -> int array -> 'a bucket option
(** The bucket of [row]'s values at [pos], if there is one. *)

val get : 'a t -> Relational.Tuple.t -> int array -> 'a bucket
(** The bucket of [row]'s values at [pos], made empty if there is none. *)

val remove : 'a t -> Relational.Tuple.t -> int array -> unit
(** Take the bucket of [row]'s values at [pos] out of the table. *)

val iter : 'a t -> ('a bucket -> unit) -> unit

val add_left : 'a bucket -> 'a -> unit
(** Put a transaction on the left side, unless it is already last
    there. All rows of one transaction arrive together, which keeps
    each side free of repeats. *)

val add_right : 'a bucket -> 'a -> unit

val remove_member : 'a bucket -> 'a -> unit
(** Take a transaction off both sides. *)

val is_empty : 'a bucket -> bool

val star : left:'a array -> right:'a array -> ('a -> 'a -> unit) -> unit
(** Pairs of transactions that span the edges joining a [left]
    transaction to a different [right] one: when both are non-empty
    every transaction of the two is connected to every other, and a
    star from one right-side transaction reaches them all; otherwise
    there is no edge and nothing is reported. Linear in the sides. *)

val iter_links : 'a bucket -> ('a -> 'a -> unit) -> unit
(** {!star} of the bucket's two sides. *)
