(** The fd-transaction graph [G^fd_T] (Section 6.1): one node per pending
    transaction, an edge between every pair of transactions that are
    mutually consistent with respect to the functional dependencies.
    Every possible world is a clique of this graph, so monotone denial
    constraints only need the maximal cliques.

    Beyond the paper's definition, a node is {e valid} only if its
    transaction is fd-consistent with the current state on its own
    ([R ∪ T |= I_fd]); invalid nodes can never join any world and are
    left isolated. Edges are checked against [R ∪ T ∪ T'] for the same
    reason. For schemas with fresh key values (like Bitcoin's) this
    coincides with the paper's [T ∪ T' |= I_fd].

    Construction costs what the conflicts cost, not the pairs: for each
    fd, pending rows are bucketed by their lhs projection and only
    same-bucket pairs with differing rhs conflict; the graph is the
    complement of the conflict relation over valid nodes, built by
    {!Bcgraph.Undirected.of_non_edges} — each valid row is a word copy
    of the valid-node mask, then each conflict clears two bits:
    O(k² / 32 + |conflicts|). *)

type t = private {
  graph : Bcgraph.Undirected.t;
  node_ok : bool array;  (** [R ∪ T_i |= I_fd]. *)
  conflicts : (int * int) list;  (** Conflicting valid pairs found. *)
}

val build : Tagged_store.t -> node_ok:bool array -> t
(** [node_ok] is the nodes' fd validity, the first half of
    {!Tagged_store.validity} ({!Session} sweeps it together with
    includability). *)

val conflict_count : t -> int

val remove : t -> int -> t
(** [remove g j] drops node [j] and densely re-ids the survivors (ids
    above [j] shift down by one, matching {!Bcdb.create_unchecked} after
    an RBF eviction). Validity and conflicts of survivors are reused
    unchanged — both depend only on [R] and the transactions' own
    rows. One word shift per surviving row: O(k² / 32). *)

val invalidate : t -> node_ok:bool array -> t
(** [invalidate g ~node_ok] installs recomputed node validity after [R]
    grew (a confirmation or a state append): nodes that turned invalid
    lose every edge and their conflict pairs, everything else is kept.
    Validity is monotone in [R] — a node can lose it, never regain it —
    so a [node_ok] naming a node [g] has invalid raises
    [Invalid_argument]. *)

val extend : t -> Tagged_store.t -> valid:bool -> t
(** [extend g store ~valid] incrementally adds the store's newest
    transaction (id = [tx_count - 1]) as one more node, valid iff
    [valid] (its {!Relational.Check.outcome} on {!Tagged_store.checker}
    is not [Fd_violated]). Its conflicts against the other pending
    transactions are found through the store's indexes
    ({!Tagged_store.union_source}, no world switch), without
    re-examining existing pairs; existing rows are copied a word at a
    time. The new row is defined as in {!build}: the valid-node mask
    minus the new node's rivals. The steady-state maintenance of Section
    6.3. *)
