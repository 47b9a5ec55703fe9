(** A solving session over one blockchain database: owns the tagged store
    and lazily caches the structures the paper precomputes in the steady
    state (Section 6.3) — the fd-transaction graph, the ΘI edges of the
    ind-transaction graph, and per-transaction includability
    ([R ∪ {T} |= I]). Multiple denial constraints can then be checked
    against the same session cheaply.

    The store snapshots the state [R] at creation, so every cached
    structure is also guarded by [R]'s {!Relational.Database.generation}
    stamp: if the same database value is mutated in place between two
    solves (the long-running [serve] access pattern), the next accessor
    call rebuilds the store and caches instead of answering from stale
    ones. *)

type t

val create : ?obs:Obs.t -> Bcdb.t -> t
(** [obs] (default {!Obs.null}) is the session's recorder: spans around
    the lazy precomputations, store cache counters, and — via
    {!Solver}/{!Dcsat} — solver phase spans and counters. *)

val db : t -> Bcdb.t
val store : t -> Tagged_store.t

val obs : t -> Obs.t
val set_obs : t -> Obs.t -> unit
(** Swap the recorder mid-session (the bench harness records one
    instrumented run after the timed ones). The store, views made of it
    from then on, and future solver runs all pick up the new
    recorder. *)

val plan : t -> Bcquery.Query.t -> Inc_eval.plan
(** The session's compiled plan for [q], compiling on first use and
    cached for the session's lifetime (physical query equality is the
    fast path, structural equality the fallback). Thread-safe; plans
    are immutable and may be evaluated concurrently. *)

val fd_graph : t -> Fd_graph.t
(** Computed on first use, then cached. *)

val ind_base_edges : t -> (int * int) list
(** The ΘI edges of the ind-transaction graph; computed on first use,
    then cached. *)

val ind_components : t -> Bcquery.Query.t -> int list list
(** Connected components of the ind-q-transaction graph
    [G^{q,ind}_T] for [q] (OptDCSat's partition, Proposition 2),
    computed on first use and cached per query for the session's
    lifetime — the graph depends only on the pending set and the query
    body, never on the store's active world. Entries are invalidated
    when the store's database value changes (dry-run extensions).
    Thread-safe. *)

val seed_components : t -> Bcquery.Query.t -> int list list -> unit
(** Install externally-maintained ind-q components for [q] against the
    current database value, replacing any cached entry for the same
    query. {!Live} maintains components with a union-find merge per
    arriving transaction and seeds them here so {!ind_components} (and
    through it OptDCSat's delta path) answers without a rebuild. The
    caller vouches that the partition is exactly what
    {!ind_components} would compute. Thread-safe. *)

val includable : t -> bool array
(** [includable.(i)] iff [R ∪ {T_i} |= I] — the transaction could be
    appended right now. *)

val warm : t -> unit
(** Force all cached structures (for benchmarking the steady state). *)

val extended : ?ind_edges:(int * int) list -> t -> t
(** A session over the same store after the store has been extended with
    one hypothetical transaction ({!Tagged_store.append_tx}): every
    already-computed structure is updated incrementally (one new graph
    node, its edges found via indexes that never switch the store's
    world) instead of rebuilt. Used by {!Dry_run} and by {!Live} on
    transaction arrival; when the extension is rolled back, the extended
    session must not outlive the rollback. The new transaction's
    validity and includability come from one
    {!Relational.Check.outcome} on {!Tagged_store.checker}. A caller
    that already probed its ΘI edges passes them as [ind_edges] instead
    of having them recomputed. *)

val reseed :
  t ->
  ?fd_graph:Fd_graph.t ->
  ?ind_base_edges:(int * int) list ->
  ?includable:bool array ->
  Bcdb.t ->
  t
(** [reseed t db] is a fresh session over [db] that inherits [t]'s
    compiled-plan cache and recorder, with any supplied pre-maintained
    structures installed as already-forced caches instead of being
    rebuilt. This is the {!Live} layer's eviction/confirmation path: it
    maintains the fd graph, ΘI edges and includability incrementally
    itself and only needs the store reloaded — O(pending) when the state
    is all-segment. Structures not supplied are rebuilt lazily. The
    supplied structures must of course describe [db] exactly; nothing is
    checked. *)
