(** Enumeration of the {e maximal} possible worlds: the worlds produced
    by running [getMaximal] over each maximal clique of the
    fd-transaction graph (Section 6.1). For monotone properties these are
    the only worlds that matter; the solvers use this enumeration
    internally and it is exposed here for analytics (e.g. "how much could
    X at most receive across all futures"). Distinct cliques can yield
    the same world; duplicates are filtered. *)

val iter :
  Session.t ->
  ?restrict:int list ->
  (Bcgraph.Bitset.t -> [ `Continue | `Stop ]) ->
  unit
(** Each distinct maximal world, as its included-transaction set.
    [restrict] limits the candidate transactions (e.g. to one component
    of the ind-q-transaction graph). *)

val list : Session.t -> int list list
(** Sorted id lists, in enumeration order. *)

val extremum :
  Session.t ->
  (Relational.Source.t -> 'a) ->
  compare:('a -> 'a -> int) ->
  ('a * int list) option
(** Evaluate a function over every maximal world and keep the largest
    result (with its world) under [compare]. [None] when there are no
    pending transactions — the base state is then the only (and maximal)
    world, which the caller can evaluate directly. *)
