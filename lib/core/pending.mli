(** Pending (insert) transactions: the elements of the set [T] of a
    blockchain database (Section 4). A transaction is a set of ground
    tuples over (some of) the relations of the schema; it has been issued
    but not (yet) accepted into the current state, and may be appended at
    any point in the future — or never. *)

type t = private {
  id : int;  (** Dense index within the database's pending set. *)
  label : string;  (** Human-readable name, e.g. a txid. *)
  rows : (string * Relational.Tuple.t) list;  (** (relation, tuple) inserts. *)
}

val make : id:int -> ?label:string -> (string * Relational.Tuple.t) list -> t
(** Duplicate rows are dropped. Raises [Invalid_argument] on an empty row
    list or a negative id. *)

val reid : t -> int -> t
(** The same transaction (label and rows) under another id — the dense
    re-id of a pending-set removal, without re-deduplicating rows. *)

val rows_for : t -> string -> Relational.Tuple.t list
(** The tuples this transaction inserts into the named relation. *)

val size : t -> int
val pp : Format.formatter -> t -> unit
