(** Polynomial-time decision procedures for the tractable cases of
    Theorems 1 and 2. Each procedure exploits structure that the generic
    clique enumeration cannot:

    - {b Fd_conjunctive} — [DCSat(Qc, {key, fd})] (Thm 1.1). With no
      inclusion dependencies, {e every} fd-consistent transaction set is a
      possible world, so [q] is violable iff some assignment over [R ∪ T]
      has an fd-consistent support whose induced world also avoids the
      assignment's negated tuples. Only supports of at most [|q|]
      transactions ever need considering.
    - {b Ind_conjunctive} — [DCSat(Qc, {ind})] (Thm 1.1). With no fds,
      reachable worlds are closed under union, so there is a unique
      maximal world; for positive queries one evaluation over it decides
      the problem. With negation, for each candidate assignment the
      transactions providing a negated tuple are excluded and the maximal
      world over the remaining transactions is tested.
    - {b Fd_aggregate} — [DCSat(Q+α,<, {key, fd})] for α ∈ {count, cntd,
      sum} (Thm 2.2, sum assuming non-negative summands) and
      [DCSat(Q+max/min,θ, {key, fd})] for every θ (Thm 2.1). The bag of a
      world shrinks with the world, so it suffices to test the {e minimal
      support worlds} [R ∪ support(h)] of single assignments [h].
    - {b Ind_monotone_aggregate} — [DCSat(Q+α,>, {ind})] for α ∈ {count,
      cntd, sum, max} and [Q+min,<] (Thms 2.4, 2.7): evaluate once over
      the unique maximal world. *)

type case =
  | Fd_conjunctive
  | Ind_conjunctive
  | Fd_aggregate
  | Ind_monotone_aggregate

val case_name : case -> string

val applicable :
  ?sum_args_nonnegative:bool -> Bcdb.t -> Bcquery.Query.t -> case option
(** Which (if any) tractable procedure decides this query over this
    database's constraint profile. [sum_args_nonnegative] (default
    [true], matching bitcoin amounts) admits the [sum] cases, which are
    tractable only over non-negative summands. {!decides} and {!solve}
    use the default. *)

val decides : Bcdb.t -> Bcquery.Query.t -> bool
(** [applicable db q <> None] — the dispatch guard used by the live
    layer to keep tractable-decided queries away from the component
    tracking and verdict-cache machinery entirely. *)

val solve : Session.t -> Bcquery.Query.t -> (Dcsat.outcome * case) option
(** [None] when no tractable case applies. *)
