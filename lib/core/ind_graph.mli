(** The ind-q-transaction graph [G^{q,ind}_T] (Section 6.2): nodes are the
    pending transactions; an edge [(T, T')] exists when some equality
    constraint θ ∈ Θ = ΘI ∪ Θq is satisfied by a tuple of [T] paired with
    a tuple of [T'].

    Connected components partition [T] into independently checkable sets
    for connected monotone denial constraints (Proposition 2). Only the
    components are ever read, so the graph is never built: they come
    from a union-find fed with spanning links. The ΘI half comes from
    the store's {!Requirements} relation, which depends only on the
    database; the Θq half buckets the pending rows in place per query
    ({!Buckets}), skipping every θ of Θq that ΘI already has. *)

val query_thetas : Bcdb.t -> Bcquery.Query.t -> Bcquery.Theta.t list
(** Θq of the query's body less the constraints ΘI already holds (either
    way round: an edge is unordered). *)

val components : Requirements.t -> Bcdb.t -> Bcquery.Query.t -> int list list
(** [components req db q]: the connected components of [G^{q,ind}_T]
    ([req] must describe [db]), as ascending node lists ordered by
    smallest member — {!Bcgraph.Components.of_graph}'s canonical form.
    Linear in the relation plus the rows of Θq's relations. *)

val edges_for_tx : Tagged_store.t -> Bcquery.Theta.t list -> int -> (int * int) list
(** The edges incident to one transaction for the given constraints,
    found through the store's indexes over [R ∪ T]
    ({!Tagged_store.union_source}: the active world is not switched) —
    {!Live}'s Θq upkeep when a transaction arrives. *)

val links : Bcdb.t -> Bcquery.Theta.t list -> int list -> (int * int) list
(** [links db qthetas members] is a set of transaction pairs inside
    [members] whose connected components over [members] are exactly
    those of the ΘI edges and the [qthetas] edges among [members] — a
    spanning structure, not the edge set itself. The members' rows are
    bucketed afresh for every θ, ΘI's too: linear in those rows, what
    re-splitting one component after a removal needs. *)
