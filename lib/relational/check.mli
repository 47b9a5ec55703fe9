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

val ind_supported : Source.t -> Constr.ind -> Tuple.t -> bool
(** Whether a (hypothetical) sub-relation tuple's projection is present in
    the visible sup relation. Partially applied to [src] and [i], it
    prepares one probe (on first use) and reuses it for every tuple. *)

(** {2 The prepared checker}

    Whether the visible source extended with one batch of rows still
    satisfies the constraints, for many batches against one source:
    the paper's node validity ([R ∪ T_i |= I_fd]) and includability
    ([R ∪ T_i |= I]) of every pending transaction. Each constraint's
    probe is prepared once per checker; a batch then costs its own rows
    — one pass over them per constraint, hashing them in place into a
    scratch table the checker keeps, plus one probe per row of a
    constrained relation — and allocates nothing once that table has
    grown to the largest batch. *)

type checker

val checker : Source.t -> Constr.t list -> checker
(** Prepare [cs] against [src]. Probes resolve on first use, so a
    constraint no batch touches builds no index. Not re-entrant: one
    checker serves one caller at a time. *)

type outcome =
  | Fd_violated  (** Some fd fails on the source plus the batch. *)
  | Ind_violated  (** Every fd holds, some ind fails. *)
  | Satisfied  (** Every constraint holds. *)

val outcome : checker -> (string * Tuple.t) list -> outcome
(** [outcome c rows] judges the visible source extended with [rows]
    (relation name, tuple; any order). Fds are judged before inds, so
    [outcome <> Fd_violated] is fd validity and [outcome = Satisfied]
    includability. *)

val sweep : checker -> (string * Tuple.t) list array -> bool array * bool array
(** [sweep c batches] is [(fd_ok, ok)]: per batch, whether the fds hold
    and whether every constraint holds, both from one {!outcome} call
    per batch. *)
