(** Incremental query evaluation across possible worlds.

    The innermost loop of the solver evaluates one denial constraint
    over a stream of worlds that differ by a handful of transactions
    (consecutive Bron–Kerbosch cliques share large prefixes) and — over
    a session's lifetime — revisits the same worlds again and again
    (repeated solves). A {!plan}
    compiles the constraint body once; an {!type-t} evaluator then keeps a
    small per-(store, plan) cache of recently evaluated worlds in a
    process-wide weak registry keyed by store handle identity, so the
    history survives as long as the handle does: the session's handle
    keeps it across solves, which is where jobs=1 solves evaluate; the
    {!Tagged_store.view} a jobs>1 worker makes keeps it for one run.

    Evaluating the current world:

    - a cached world at transaction-level distance 0 is a {e replay}:
      the verdict (and canonical witness / aggregate accumulator) is
      returned without touching the data;
    - otherwise, for a monotone (negation-free) body, the nearest
      cached compatible world seeds a semi-naive delta search
      ({!Bcquery.Eval.run_delta}) over the Δ-tuples
      ({!Tagged_store.world_delta}): boolean bodies need a cached
      {e no-match} world (sound even with removals — the current world
      is contained in cached ∪ Δ); aggregate accumulators additionally
      need an insert-only delta, and stop early when θ already holds
      and inserts can only push past it (Count/Max with [>], Min with
      [<]);
    - anything else — negated atoms, Cntd, an oversized delta, a
      first-seen world — falls back to the full backtracking join.

    Delta-found violations re-derive their witness with the full search,
    so both paths return the identical canonical assignment and the
    engine's cross-backend determinism contract is preserved.

    Obs counters: [eval.full] (full evaluations), [eval.delta] (replays
    and delta evaluations), [eval.delta_tuples] (Δ-tuples seeded).
    These are {e not} deterministic across backends — each store carries
    its own history. *)

type plan
(** A query compiled once for repeated evaluation: the lowered body
    ({!Bcquery.Eval.compiled}), its monotonicity, and the aggregate
    shape. Immutable; share freely across domains (cache it per session
    with {!Session.plan}). *)

val plan : Bcquery.Query.t -> plan
val query : plan -> Bcquery.Query.t

val body : plan -> Bcquery.Eval.compiled
(** The compiled CQ body (for direct {!Bcquery.Eval} use). *)

type t
(** An evaluator instance: one per engine worker (cheap — the world
    cache lives with the store, not the evaluator). Not domain-safe;
    each worker builds its own. *)

val evaluator : ?use_delta:bool -> ?obs:Obs.t -> plan -> t
(** [use_delta] (default true) turns the world cache and delta paths
    off entirely — every evaluation is a full search (the baseline the
    benchmarks compare against). [obs] (default {!Obs.null}) receives
    the [eval.*] counters. *)

val eval_world : t -> Tagged_store.t -> int list -> Engine.evaluation
(** Switch the store to the world of the given transactions and
    evaluate the plan over it, as an engine evaluation (with canonical
    witness on a boolean violation). *)

val eval_bool : t -> Tagged_store.t -> bool
(** Evaluate over the store's current world without switching it,
    through the world cache. *)

val eval_source : t -> Relational.Source.t -> bool
(** Evaluate the plan once over a fixed source, outside the world cache
    — the pre-check's [R ∪ T] instance, read through
    {!Tagged_store.union_source} with no world switch. Boolean bodies
    stop at the first match; aggregates fold the whole bag. Counted as
    [eval.full]. *)
