(** [getMaximal] (Figure 4): the unique maximal possible world over
    [(R, I, T')] for a candidate transaction set [T'] that is a clique of
    the fd-transaction graph ({!Fd_graph}) of the store's database.
    Transactions are appended while the constraints stay satisfied;
    transactions whose inclusion dependencies can never be met within
    the candidate set are left out.

    {b Contract.} [candidates] must be a clique of the store's fd graph.
    {!Dcsat} and {!Maximal_worlds} pass the cliques they enumerate;
    {!Tractable}'s ind-only cases have no fds, so every set is a clique
    there. The fds are then settled before any work: the graph joins
    only valid nodes ([R ∪ T_i |= I_fd]), so a clique of two or more
    members holds valid nodes only, and every fd violation involves two
    tuples, which node validity (against [R]) or the clique's edges
    (between members) rule out. Only a singleton [{i}] may be an
    isolated invalid node; it is kept iff its
    {!Relational.Check.outcome} on {!Tagged_store.checker} is
    [Satisfied].

    {b Cost.} Without inds the world is the clique itself: O(|clique|).
    Otherwise the inds are propagated over the clique's own rows with
    counters: each member's sup-side rows are hashed per ind, each
    sub-side row not supported by its own transaction or by [R] becomes
    a requirement waiting on the members that provide it, and a member
    joins once all its requirements are closed. That is one base-index
    probe per sub-side row plus time linear in the members' rows and
    their provider links; per-call state is sized by the clique, not by
    the store's transaction count (beyond the result bitset).

    The store's active world is never read or switched: base support is
    probed through {!Tagged_store.base_source}. *)

val run : Tagged_store.t -> Bcgraph.Bitset.t -> Bcgraph.Bitset.t
(** The included-transaction set of the maximal world (a fresh bitset of
    capacity {!Tagged_store.tx_count}). *)

val run_list : Tagged_store.t -> int list -> Bcgraph.Bitset.t
(** {!run} over the listed members. *)
