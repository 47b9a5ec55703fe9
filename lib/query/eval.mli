(** Query evaluation over a {!Relational.Source.t}.

    The evaluator runs a backtracking join: at every depth it picks the
    cheapest remaining positive atom (smallest estimated result, the
    [count] of its prepared probe; the last remaining atom is taken
    without a count), enumerates matching tuples through the source's
    prepared probes, and prunes with negated atoms and comparisons as
    soon as their variables are bound.

    An assignment [h] maps each body variable to a value; because every
    variable occurs in a positive atom, assignments correspond one-to-one
    to the tuple combinations the join enumerates, which gives exactly the
    bag semantics of Section 5 for aggregates.

    Compilation (variable numbering, atom/comparison lowering) is split
    from execution so a solver session can compile each constraint once
    and evaluate the plan over thousands of worlds. The entry points
    below take an {!type-evaluator} over the plan, except the one-shot
    {!eval} and {!count_matches}: it keeps one prepared
    {!Relational.Source.probe} and one scratch key array per (positive
    atom, set of bound positions), so after the first world a probe
    resolves no index and builds no key. *)

type compiled
(** A compiled conjunctive-query body: variables numbered, atoms and
    comparisons lowered to array form. Immutable — safe to share across
    domains and evaluate concurrently (each evaluation owns its own
    binding environment). *)

val compile : Cq.t -> compiled

type evaluator
(** A plan plus its prepared probes. The probes belong to one source at
    a time: evaluating over a different source (compared physically)
    re-prepares them, so keep one evaluator per source, e.g. per engine
    worker and store. Mutable and not domain-safe — unlike the plan,
    which engine workers share, each worker needs its own. Not
    re-entrant: do not evaluate with it from inside its own callback. *)

val evaluator : compiled -> evaluator

val has_negation : compiled -> bool
(** The body contains negated atoms — evaluating it is not monotone in
    the source, so delta seeding ({!run_delta}) is unsound for it. *)

val positive_relations : compiled -> string list
(** Relation of each positive atom, in atom order (with duplicates). *)

val find_witness :
  Relational.Source.t -> evaluator -> (string * Relational.Value.t) list option
(** A satisfying assignment, as variable bindings in [q.vars] order. *)

val iter_matches :
  Relational.Source.t ->
  evaluator ->
  (Relational.Value.t array ->
  (string * Relational.Tuple.t) list ->
  [ `Continue | `Stop ]) ->
  unit
(** Calls the callback once per satisfying assignment with the values of
    [q.vars] (in order) and the {e support}: the (relation, tuple) pair
    each positive atom was mapped to, in atom order. Duplicate assignments
    never occur. Return [`Stop] to abort. *)

val run_delta :
  Relational.Source.t ->
  evaluator ->
  delta:(string -> Relational.Tuple.t list) ->
  (Relational.Value.t array ->
  (string * Relational.Tuple.t) list ->
  [ `Continue | `Stop ]) ->
  unit
(** Semi-naive delta evaluation: enumerate exactly the satisfying
    assignments that map {e at least one} positive atom to a tuple of
    [delta rel] (the tuples of [rel] visible in the current source but
    not in the previously evaluated one). For each positive atom the
    search is seeded with each Δ-tuple and completed over the remaining
    atoms through the source's (current) indexes.

    Soundness: if the body is negation-free ({!has_negation} = false),
    its match set is monotone in the visible tuples, so every match
    present now but absent before uses ≥ 1 added tuple — [run_delta]
    misses none of them. It never reports a match not satisfied by the
    current source. An assignment mapping [k > 1] atoms to Δ-tuples is
    reported up to [k] times (once per seed); callers that count or sum
    must deduplicate assignments. *)

val aggregate_value :
  Relational.Source.t -> evaluator -> Query.aggregate -> Relational.Value.t option
(** [α(B)] where [B] is the bag of [h(x̄)] over all satisfying
    assignments of the precompiled body ([compile a.body]); [None] when
    the bag is empty. *)

val project_compiled :
  compiled ->
  Term.t array ->
  Relational.Value.t array ->
  Relational.Value.t array
(** [h(x̄)]: the aggregate's argument terms under an assignment (values
    of the body variables in [q.vars] order). *)

val theta_holds :
  Query.theta -> Relational.Value.t -> Relational.Value.t -> bool
(** [theta_holds θ v threshold] — the aggregate comparison [v θ t]. *)

val eval : Relational.Source.t -> Query.t -> bool
(** Full denial-constraint body evaluation over one world. For aggregates
    an empty bag makes the comparison false (footnote 9 semantics). *)

val eval_compiled : Relational.Source.t -> Query.t -> evaluator -> bool
(** Same, over the precompiled body of [q] (its CQ part: the boolean body
    or the aggregate's body). *)

val body_of : Query.t -> Cq.t
(** The CQ body of a query (boolean body, or the aggregate's body). *)

val count_matches : Relational.Source.t -> Cq.t -> int
