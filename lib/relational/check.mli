(** Integrity-constraint satisfaction over a {!Source.t}: [R |= I] checks,
    witness extraction, and the incremental per-tuple checks used by the
    core algorithms ([getMaximal], graph construction).

    Incremental reasoning relies on two standard monotonicity facts:
    functional-dependency violations are pairwise (so appending tuples can
    only add violations that involve a new tuple), and inclusion
    dependencies can never be broken for already-present tuples by
    appending more tuples. *)

type violation =
  | Fd_violation of Constr.fd * Tuple.t * Tuple.t
      (** Two tuples agreeing on the lhs, differing on the rhs. *)
  | Ind_violation of Constr.ind * Tuple.t
      (** A sub-relation tuple whose projection is unsupported. *)

val pp_violation : Format.formatter -> violation -> unit

val check_fd : Source.t -> Constr.fd -> violation option
val check_ind : Source.t -> Constr.ind -> violation option
val first_violation : Source.t -> Constr.t list -> violation option
val satisfies : Source.t -> Constr.t list -> bool
val violations : Source.t -> Constr.t list -> violation list

val fd_conflict : Source.t -> Constr.fd -> Tuple.t -> Tuple.t option
(** [fd_conflict src f t] is a visible tuple of [f.frel] agreeing with [t]
    on the lhs of [f] but differing on the rhs, if any. [t] itself need
    not be visible. Partially applied to [src] and [f], it prepares one
    probe (on first use) and reuses it for every tuple. *)

val ind_supported : Source.t -> Constr.ind -> Tuple.t -> bool
(** Whether a (hypothetical) sub-relation tuple's projection is present in
    the visible sup relation. Prepares its probe once per partial
    application to [src] and [i], like {!fd_conflict}. *)

val batch_consistent :
  Source.t -> Constr.t list -> (string * Tuple.t list) list -> bool
(** [batch_consistent src cs rows] decides whether the visible source
    extended with [rows] (grouped by relation name) still satisfies [cs].
    Runs in time proportional to the batch, not the source. *)
