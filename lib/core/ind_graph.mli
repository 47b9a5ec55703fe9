(** The ind-q-transaction graph [G^{q,ind}_T] (Section 6.2): nodes are the
    pending transactions; an edge [(T, T')] exists when some equality
    constraint θ ∈ Θ = ΘI ∪ Θq is satisfied by a tuple of [T] paired with
    a tuple of [T'].

    Connected components partition [T] into independently checkable sets
    for connected monotone denial constraints (Proposition 2). The edges
    derived from ΘI depend only on the database, so a session precomputes
    them once ({!base_edges}); the Θq edges are added per query. *)

val edges : Tagged_store.t -> Bcquery.Theta.t list -> (int * int) list
(** Distinct transaction pairs [(i, j)], [i < j], linked by one of the
    given equality constraints. Computed by hashing projections — linear
    in the pending rows plus output size. *)

val base_edges : Tagged_store.t -> (int * int) list
(** The ΘI edges (from the database's inclusion dependencies). *)

val build : Tagged_store.t -> Bcquery.Query.t -> (int * int) list -> Bcgraph.Undirected.t
(** [build store q base] is [G^{q,ind}_T]: the base ΘI edges plus the Θq
    edges of [q]'s body. *)

val edges_for_tx : Tagged_store.t -> Bcquery.Theta.t list -> int -> (int * int) list
(** The edges incident to one transaction, found through the store's
    indexes over [R ∪ T] ({!Tagged_store.union_source}: the active world
    is not switched) — incremental maintenance when a transaction is
    issued. *)

val links : Bcdb.t -> Bcquery.Theta.t list -> int list -> (int * int) list
(** [links db thetas members] is a set of transaction pairs inside
    [members] whose connected components over [members] are exactly
    those of the edges {!edges} finds among [members] — a spanning
    structure, not the edge set itself. Linear in the members' rows:
    what re-splitting one component after a removal needs. *)
