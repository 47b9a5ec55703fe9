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
    isolated invalid node; an invalid member is never included.

    {b Cost.} Without inds the world is the clique itself: O(|clique|).
    Otherwise it reads the store's requirement relation
    ({!Tagged_store.requirements}), whose sweep already probed [R] for
    every sub row and kept the {e open} ones — those neither their
    transaction nor [R] supports — each with its pending providers. The
    inds are then propagated over the clique with counters: each open
    row of a member becomes a requirement waiting on the providers in
    the clique (or blocks the member when there is none), and a member
    joins once all its requirements are closed. That is time linear in
    the members and their open rows' provider lists, with no hashing
    and no probe of [R]; per-call state is sized by the clique, not by
    the store's transaction count (beyond the result bitset). The first
    call on a store builds the relation's provider layer.

    The store's active world is never read or switched. *)

val run : Tagged_store.t -> Bcgraph.Bitset.t -> Bcgraph.Bitset.t
(** The included-transaction set of the maximal world (a fresh bitset of
    capacity {!Tagged_store.tx_count}). *)

val run_list : Tagged_store.t -> int list -> Bcgraph.Bitset.t
(** {!run} over the listed members. *)
