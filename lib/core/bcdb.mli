(** The blockchain database triple [D = (R, I, T)] of Section 4:

    - [R], the {e current state} — the relations already accepted into the
      blockchain;
    - [I], integrity constraints with [R |= I];
    - [T], a finite set of pending insert transactions.

    The type is a snapshot: appending a transaction to the state or
    issuing a new pending transaction produces a new value (the underlying
    relations are shared, so this is cheap). *)

type t = private {
  state : Relational.Database.t;
  constraints : Relational.Constr.t list;
  pending : Pending.t array;  (** [pending.(i).id = i]. *)
}

val create :
  state:Relational.Database.t ->
  constraints:Relational.Constr.t list ->
  pending:(string * Relational.Tuple.t) list list ->
  ?labels:string list ->
  unit ->
  (t, string) result
(** Validates [R |= I] and re-ids the pending transactions densely.
    [labels], when given, must match [pending] in length. *)

val create_exn :
  state:Relational.Database.t ->
  constraints:Relational.Constr.t list ->
  pending:(string * Relational.Tuple.t) list list ->
  ?labels:string list ->
  unit ->
  t

val create_unchecked :
  state:Relational.Database.t ->
  constraints:Relational.Constr.t list ->
  pending:(string * Relational.Tuple.t) list list ->
  ?labels:string list ->
  unit ->
  t
(** Like {!create_exn} but skips the [R |= I] validation pass — a full
    scan of the state, prohibitive at paper-scale row counts. Only for
    trusted inputs: snapshots this process wrote, or generators whose
    output satisfies the constraints by construction. *)

val catalog : t -> Relational.Schema.t
val pending_count : t -> int
val fds : t -> Relational.Constr.fd list
val inds : t -> Relational.Constr.ind list

val constraint_profile : t -> [ `Key | `Fd | `Ind ] list
(** The Δ of the complexity results: which constraint types appear. *)

val with_pending :
  t -> ?label:string -> (string * Relational.Tuple.t) list -> t
(** Issue one more pending transaction (e.g. a hypothetical "dry run"
    transaction, Example 4). The state and existing transactions are
    shared. Without [label] it takes {!fresh_label}'s.
    @raise Invalid_argument if a pending transaction has [label]. *)

val has_label : t -> string -> bool
(** Whether a pending transaction has this label. *)

val fresh_label : t -> string
(** The first of ["T<n+1>"], ["T<n+2>"], ... (for [n] pending
    transactions) that no pending transaction has — the label a file
    gives an unlabelled [n+1]-th transaction when it is free. *)

val with_state : t -> Relational.Database.t -> t
(** [with_state t state] replaces the state and keeps the constraints
    and the pending transactions as they are — unchecked, like
    {!create_unchecked}. For a re-encoding of the same state (or a
    trusted extension of it) that leaves every pending transaction and
    its id in place. *)

val remove_pending : ?state:Relational.Database.t -> t -> int -> t
(** [remove_pending t id] drops pending transaction [id]; later ids
    shift down by one, labels and rows are kept. [state] (default: [t]'s)
    replaces the state — unchecked, like {!create_unchecked}. What a
    from-scratch [create_unchecked] over the survivors gives, without
    re-deduplicating their rows. *)

val append_to_state : t -> int -> (t, string) result
(** Commit pending transaction [id] into the current state, provided the
    result satisfies the constraints; the transaction leaves [T]. This is
    one [→T,I] step of the can-append relation. The remaining pending
    transactions are re-identified densely. *)

val pp_summary : Format.formatter -> t -> unit
