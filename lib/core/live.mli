(** The live DCSat layer: one long-lived solving context whose inputs are
    {e maintained} under mempool churn instead of rebuilt per request.

    A batch {!Session} amortizes the precomputed structures of Section
    6.3 — the fd-transaction graph [G^fd_T] and the requirement relation
    ({!Requirements}: per-transaction validity and includability, open
    rows and their providers, the ΘI links of the ind-transaction
    graph) — across many
    constraint checks over one frozen database. A serving system sees
    the opposite access pattern: the database churns (transactions
    arrive, are replaced by fee bumps, are confirmed into the state,
    or vanish in a reorg) while the {e same} constraints are checked
    over and over. This module keeps those structures current under each
    of the four mempool events, paying per event only for what the event
    actually changed:

    - {b add} ({!try_add}): one new graph node; one
      {!Relational.Check.outcome} judges it and reports its open rows,
      and its rows join the relation's buckets ({!Requirements.add}),
      which gives its ΘI edges; its fd conflicts and Θq edges are found
      through world-free index probes ({!Fd_graph.extend},
      {!Ind_graph.edges_for_tx}, Θq once per tracked query); existing
      graph rows are copied a word at a time; tracked per-query
      components merge only the parts the new node's edges reach
      ({!Bcgraph.Components.add_node}); everything else is reused.
    - {b evict} ({!evict}, RBF): the node and its edges are dropped and
      ids re-packed ({!Fd_graph.remove}: one word shift per surviving
      row; {!Requirements.remove}: one pass over the buckets); node
      validity, surviving conflicts, open rows and includability are
      reused (none depends on the evicted transaction). Tracked components are rebuilt {e only}
      for the component the node leaves (a removal can split nothing
      else); every other part is re-id'd and keeps its cached verdict.
    - {b confirm} ({!confirm}): the transaction's rows join [R], so node
      validity and includability are recomputed for every survivor in
      one re-sweep of the relation with a checker prepared on the new
      state ({!Requirements.resweep}), which also re-derives every open
      row, and survivors that turned invalid are isolated
      ({!Fd_graph.invalidate}) in the word-shifted graph; the pairwise
      conflict relation and the relation's buckets depend only on
      pending rows and are reused re-id'd. The
      component partition is maintained like an evict's, but the state
      epoch bump conservatively dirties every cached verdict.
    - {b reorg} ({!reset}): full resync — the one event with no useful
      delta. Compiled plans still carry over; verdict caches do not.

    Checks run through the ordinary {!Solver} on the maintained session,
    so PR 5's ephemeron-registry world/plan caches persist across
    requests, and per-request budgets give admission control.

    This is the one mutation path of the front ends: [bcdb serve] (its
    protocol is the [Serve] library) and bcdb-shell hold one [t] each
    and apply every issue, eviction and confirmation as one of these
    events; neither rebuilds a {!Bcdb.t} or a {!Session.t} itself.

    {2 The per-(query, component) verdict cache}

    On top of the maintained partition sits a content-addressed verdict
    cache. Each pending transaction gets a
    content digest of its rows at arrival; each component's {e
    signature} is an order-independent digest of its members' digests
    plus Live's state epoch. By the factorization argument behind
    OptDCSat (components are mutually independent), equal signature
    implies equal per-component verdict — so a warm {!check} hands
    {!Dcsat.opt} hooks that skip every component whose signature is
    cached as [Satisfied] and re-solve only the dirty ones, in the one
    schedule of {!Dcsat.opt}: index order, stopping at the first
    violation, lowest-index violation wins. Verdicts and witnesses are
    bit-identical with the cache on or off, at any job count.

    [Satisfied] verdicts survive any event that leaves the component's
    content (and R) unchanged — they name no ids and claim only a
    semantic fact. [Violated] verdicts are cached {e with} their
    witness, which names transaction ids and is canonical only
    relative to the whole database (plan choice and row enumeration
    order are global), so they are replayed only between back-to-back
    checks of an unchanged mempool — {e every} mutation event empties
    them — and their cache keys additionally embed the member ids:
    {e twin} components with identical content share a signature, and
    a twin may only replay its own witness, never its sibling's. A
    component is cached only when a solve decided it: components past
    the winning violation stay unprobed and uncached, and so do
    budget-cut ones.
    The cache is always on in production; only a differential oracle
    passes [~use_cache:false]. Hits, misses, and dirty re-solves are surfaced as the [live.comp_cache_hit] /
    [live.comp_cache_miss] / [live.comp_dirty] {!Obs} counters and via
    {!cache_stats}.

    {2 Spans}

    On the recorder given to {!create}, every maintenance event records
    a span of category [live] — [add], [evict], [confirm] or [reset] —
    with children [fd] (fd-graph upkeep, including validity re-checks
    after a confirmation), [ind_edges] (the relation's upkeep: an
    arrival's judgement and bucketing, or a removal's re-packing),
    [components] (per-tracked-query partition upkeep) and, on removals,
    [store] (state compaction and the store reload). *)

type t

type cache_stats = {
  cache_hits : int;  (** components skipped: signature cached Satisfied *)
  cache_misses : int;  (** signature probes that missed (dirty) *)
  cache_dirty : int;  (** components decided afresh (includes covers) *)
  cache_checks : int;  (** cache-eligible checks run *)
  cache_entries : int;  (** live cached signatures across tracked queries *)
}

val create : ?obs:Obs.t -> Bcdb.t -> t
(** Take over the database: the state is compacted to all-segment form
    (so every later store reload is O(pending), independent of state
    size), the session is created and warmed. *)

val db : t -> Bcdb.t
val session : t -> Session.t

val fd_graph : t -> Fd_graph.t
(** The maintained [G^fd_T] — what {!Fd_graph.build} would return on the
    current database (up to edge-list ordering). *)

val requirements : t -> Requirements.t
(** The maintained requirement relation — equal, up to the order of its
    lists, to a fresh session's {!Session.requirements} on the current
    database. *)

val includable : t -> bool array
(** Maintained [R ∪ {T_i} |= I] per pending transaction. *)

val components : t -> Bcquery.Query.t -> int list list
(** The ind-q components for [q], maintained incrementally once [q] has
    been seen (first call computes and starts tracking). *)

val tx_digest : Pending.t -> string
(** The content digest of one transaction's rows (order-independent)
    that component signatures are built from; computed once per
    transaction, at {!create} or on arrival. *)

val cache_stats : t -> cache_stats
(** Cumulative verdict-cache counters since {!create}. *)

val pending_count : t -> int

val find : t -> string -> int option
(** Pending id of the transaction with the given label, if any. *)

val try_add :
  t -> ?label:string -> (string * Relational.Tuple.t) list -> (unit, string) result
(** A transaction arrives in the mempool. Costs in proportion to the new
    transaction, not the ledger: index probes for its rows through
    world-free store views (the active world, its epoch and posting
    caches are untouched), one word copy per fd-graph row, and per
    tracked query a merge of just the components its Θ edges reach.
    Dirties only the (possibly merged) component the new transaction
    lands in. [Error], with nothing changed, if the label (default
    ["T<id>"]) is already pending, [rows] is empty, or a row names an
    unknown relation or has the wrong arity. *)

val add : t -> ?label:string -> (string * Relational.Tuple.t) list -> unit
(** {!try_add} for callers that guarantee an admissible arrival; raises
    [Invalid_argument] (nothing changed) where {!try_add} returns
    [Error]. *)

val evict : t -> string -> (unit, string) result
(** The labeled transaction is replaced/evicted (RBF). [Error] if no
    pending transaction carries the label. Dirties only the component
    the transaction leaves; the re-split is scoped to that component. *)

val confirm : t -> string -> (unit, string) result
(** The labeled transaction is mined: its rows join the state, it leaves
    the pending set. The state is re-compacted (O(|R|) — once per block,
    keeping every subsequent store reload O(pending)). Conservatively
    dirties every cached verdict (the epoch bump). [Error], with nothing
    changed, if no pending transaction carries the label or the
    transaction is not includable ([R ∪ T] would violate a
    constraint). *)

val append_state : t -> (string * Relational.Tuple.t) list -> unit
(** Rows enter the state without ever having been pending (coinbase
    transactions, blocks mined elsewhere). Same state-side maintenance
    as {!confirm} with no pending removal; also bumps the epoch. *)

val reset : t -> Bcdb.t -> unit
(** Reorg fallback: resynchronize to a freshly encoded database. All
    structures are rebuilt; compiled plans and the recorder carry over;
    component tracking and verdict caches restart from scratch. *)

val check :
  ?jobs:int ->
  ?budget:Engine.Budget.t ->
  ?use_cache:bool ->
  t ->
  Bcquery.Query.t ->
  (Dcsat.outcome * Solver.strategy, string) result
(** One DCSat request against the current mempool: {!Solver.solve} over
    the maintained session, with [budget] (default
    {!Engine.Budget.unlimited}) the per-request admission budget (an
    exhausted budget yields [verdict = Unknown], never a wrong answer). The first check of a
    query starts component tracking for it. [use_cache] (default
    [true]) is the verdict cache; [false] is the uncached oracle that
    tests and the bench compare against. When the cache is on and the
    query will take the OptDCSat path, the check re-solves only
    components whose signature is not cached (see the module preamble).
    Tractable-decided queries bypass tracking and caching entirely, and
    so do budgeted requests (any budget that can trip): a cached
    verdict could otherwise answer where the budget-tripped solve must
    return [Unknown], breaking cache-on/off bit-identity. *)
