(** The evaluation store: every tuple of the current state and of every
    pending transaction is loaded once, tagged with its origins, and
    indexed. A {e possible world} is then just a visibility bitset over
    transaction ids — switching worlds costs nothing, and the exposed
    {!Relational.Source.t} filters full reads, index lookups and
    membership tests by the active visibility.

    This is the in-memory analogue of the paper's implementation trick
    (Section 6.3) of augmenting every Postgres table with a boolean
    [current] column that marks the tuples of the world under
    consideration.

    A tuple may be contributed both by the base state and by pending
    transactions (or by several transactions); it is stored once with the
    set of its origins, so that worlds are genuine {e sets} of tuples and
    aggregate queries never double-count.

    The base state lives in an immutable columnar {!Relational.Segment.t}
    per relation (unboxed [Int]/[Float] columns, dictionary-encoded
    otherwise): off-heap and invisible to the GC. The pending tail holds
    each tuple once with its ascending origins; a pending tuple is in a
    world when one of its origins is.

    A value of type {!t} is a {e handle}: the tables are shared by the
    handle {!create} returns and every {!view} of it, while each handle
    owns its world. Engine workers, and every library module that needs
    a world of its own, evaluate on a view; a world inside an ind-q
    component leaves every transaction outside it invisible. *)

type t

val create : Bcdb.t -> t
(** One pass over the pending rows, transaction by transaction in id
    order, through the same insertion step {!append_tx} takes: a row the
    base segment holds ({!Relational.Segment.find}) only merges its
    origin into the base row's; a row an earlier transaction wrote gains
    the origin; any other row becomes a new pending entry. Entries are
    so in order of first occurrence and origin lists ascending — the
    store {!append_tx} grows from the same database with nothing
    pending, one transaction at a time. The pending row and posting
    tables are looked up with {!Relational.Tuple.hash_noalloc} (their
    order never shows), so the build allocates no hash keys. *)

val db : t -> Bcdb.t

val view : t -> t
(** A read-only handle over the same tables: base segments, pending
    entries, posting tables and origins are shared, so a view costs
    O(relations) whatever the store's size. It owns its world (a copy
    of [t]'s when it is made), epoch, uid, sources and prepared probes:
    switching its world never moves [t]'s or another view's, and vice
    versa. A view answers every probe, count included, exactly as any
    handle of the store in the same world, so the evaluator picks the
    same join orders and returns the same witnesses on either.

    Views on different domains may probe at once: a pending posting
    table is built on first use under one lock the store's handles
    share, and a prepared probe keeps the table it got, so steady-state
    probes take no lock. A handle itself — its world and prepared
    probes — belongs to one domain at a time.

    A view copies [t]'s database and transaction count when it is made
    and refuses {!append_tx} and {!undo} ([Invalid_argument]): only the
    handle {!create} returned grows the shared tables, and only while no
    view is being probed. Make views after an {!append_tx}, not across
    it; a view made before one never sees the appended transaction. *)

val tx_count : t -> int

val uid : t -> int
(** A process-unique id minted at creation ({!create} and {!view}
    each get a fresh one). Lets weak tables keyed by physical store
    identity hash in O(1) instead of walking the deep mutable
    structure. *)

val state_generation : t -> int
(** The {!Relational.Database.generation} stamp of the database value's
    current state [R]. The store loads [R] once at {!create}; if this
    stamp has moved since, the state was mutated in place behind the
    store's back and the store (and anything cached against it) is
    stale — see {!Session} for the rebuild-on-churn guard. *)

val set_obs : t -> Obs.t -> unit
(** Attach a recorder; the store bumps world-switch
    (["store.epoch_switch"]) and base-probe dictionary hit/miss
    (["segment.dict_hits"]/["segment.dict_miss"]) counters on it
    (defaults to {!Obs.null}, whose per-call cost is one branch).
    A {!view} starts with its parent's recorder. *)

val base_bytes : t -> int
(** Estimated resident bytes of the base segments (column payloads).
    Views share these bytes — sum the figure across views and you count
    the same memory repeatedly. *)

val world : t -> Bcgraph.Bitset.t
(** The active visibility (a copy; mutating it does not affect the
    store). *)

val set_world : t -> Bcgraph.Bitset.t -> unit
(** Make exactly the given transactions visible (base state is always
    visible): one bitset copy, whatever the pending size. Capacity must
    equal {!tx_count}. *)

val set_world_list : t -> int list -> unit
val all_visible : t -> unit
(** Switch to the (usually inconsistent) instance [R ∪ T]. The monotone
    pre-check reads it through {!union_source} instead, without a
    switch. *)

val base_only : t -> unit

val source : t -> Relational.Source.t
(** A live view: reflects subsequent [set_world] calls. The same record
    on every call ({!union_source} and {!base_source} likewise), so a
    caller may key per-source state on it physically.

    [prepare rel cols] resolves the relation's pending posting table
    over the bound columns (one table kind, keyed by the projection on
    the sorted column list) and its base segment index once, on first
    use, and caches the probe per handle, source, relation and columns:
    a second [prepare] returns the same probe. The base index is only
    fetched for a key every probed base column admits
    ({!Relational.Segment.admits}): a key holding a constant no base
    column holds matches no base row, and probing it builds no index.
    [iter] yields the visible pending matches by descending position,
    then the base matches by descending position, testing each pending
    entry's origins against the handle's world inline. [count] is
    world-independent: the pending posting count plus the base
    hash-range width, from the lowest bound column alone when more than
    3 are bound. A relation with an empty base segment never builds or
    searches a base index (and counts no dictionary hit or miss). The
    zero-column probe is the full read: base rows by position, then the
    visible pending rows by ascending position; it counts every base
    and pending row. Probes stay valid across world switches,
    {!append_tx} and {!undo}, which update the shared tables in place. A
    handle — and so its probes — belongs to one domain at a time. *)

val union_source : t -> Relational.Source.t
(** A read-only view fixed at [R ∪ T]: every pending row visible,
    whatever the active world. Answers what {!source} answers after
    {!all_visible}, in the same order, but never switches the world —
    the active world and its epoch are untouched.
    The solver's pre-check and the live layer's index probes for one
    transaction go through it. *)

val base_source : t -> Relational.Source.t
(** A read-only view fixed at [R] alone (what {!source} answers after
    {!base_only}), with the same no-world-switch guarantee as
    {!union_source}. *)

val checker : t -> Relational.Check.checker
(** The database's constraints prepared on {!base_source} ([R] alone):
    {!Relational.Check.outcome} of a transaction's rows is its node
    validity and includability, read without switching the active
    world. Built on first use and kept; the constraints and [R] never
    change under {!append_tx}, so it outlives it. A {!view} starts
    without one. *)

val validity : t -> bool array * bool array
(** [(node_ok, includable)]: per pending transaction, [R ∪ T_i |= I_fd]
    and [R ∪ T_i |= I], both from one {!Relational.Check.sweep} of
    {!checker}. The active world and its epoch are untouched. *)

val epoch : t -> int
(** Monotone world-switch stamp: bumped by every world switch that
    changes the visible set (and by {!undo}); no-op switches and probes
    through any view leave it unchanged. *)

type world_delta = {
  added_txs : int;  (** Transactions visible now but not in [prev]. *)
  removed_txs : int;  (** Transactions visible in [prev] but not now. *)
  added : (string -> Relational.Tuple.t list) Lazy.t;
      (** Per-relation tuples visible in the {e current} world but not
          in [prev] — exact (origin sets are consulted, so a tuple also
          contributed by a surviving transaction is not reported) and
          deduplicated. Materialized on first force over the added
          transactions only, O(|Δ| rows); force it before the store's
          pending segment changes ({!append_tx}/{!undo}). *)
}

val world_delta : t -> prev:Bcgraph.Bitset.t -> world_delta
(** Compare the active world against a saved [prev] bitset (as returned
    by {!world}, possibly many switches ago — this is {e not} tied to
    the last switch). Transaction-level counts are computed eagerly in
    O(k / word_size); the added-tuple sets are lazy. Capacity of [prev]
    must equal {!tx_count}. *)

val origins : t -> string -> Relational.Tuple.t -> int list
(** All origins of a tuple ([-1] is the base state); [[]] if the store
    has never seen the tuple. *)

val to_database : t -> Relational.Database.t
(** Materialize the active world as a standalone database (testing and
    debugging). *)

(** {2 Hypothetical extension}

    Dry runs (Example 4: "the user hypothetically adds her transaction")
    extend the store in place with one more pending transaction —
    sharing every loaded tuple and index — and later roll it back. Used
    by {!Dry_run}; while a journal is outstanding, other consumers of
    the store must not rely on the transaction count. Only the handle
    {!create} returned may extend the store or roll it back; both raise
    [Invalid_argument] on a {!view}. *)

type journal

val append_tx : t -> Bcdb.t -> journal
(** [append_tx t db'] where [db'] is [db t] plus exactly one more pending
    transaction: loads that transaction's rows (id = old {!tx_count})
    with {!create}'s insertion step and switches the store to [db'].
    Returns the rollback journal: the base rows the transaction also
    wrote; the rest is read back from the store. *)

val undo : t -> journal -> unit
(** Roll back the matching {!append_tx}. Journals must be undone in LIFO
    order. Restores the previously active world. *)
