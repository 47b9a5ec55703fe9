(** Simple undirected graphs over the node set [0 .. n-1], represented as
    adjacency bitsets. Dense-friendly: the transaction graphs of Section 6
    ([G^fd_T], [G^{q,ind}_T]) have one node per pending transaction and are
    often dense, and the clique algorithms want O(1) adjacency tests and
    fast neighbourhood intersections. *)

type t

val create : int -> t
(** [create n] is the edgeless graph on [n] nodes. *)

val of_non_edges : int -> nodes:Bitset.t -> non_edges:(int * int) list -> t
(** [of_non_edges n ~nodes ~non_edges] is the graph on [n] nodes in
    which every two distinct members of [nodes] are adjacent except the
    pairs in [non_edges]; nodes outside [nodes] are isolated, and a pair
    with an endpoint outside [nodes] is ignored. Each row is one word
    copy of [nodes], then one bit cleared per non-edge:
    O(n² / 32 + |non_edges|). Out-of-range nodes raise
    [Invalid_argument]. *)

val node_count : t -> int

val copy : t -> t

val extend : t -> int -> t
(** [extend g extra] is a fresh graph with [extra] additional isolated
    nodes and all of [g]'s edges. Each row is one word copy. *)

val remove_node : t -> int -> t
(** [remove_node g j] is a fresh graph without node [j]: nodes above [j]
    shift down by one (the dense re-id of a pending-set removal) and
    every other edge is kept. Each row is one word shift. *)

val isolate : t -> int -> unit
(** [isolate g i] removes every edge incident to [i], in place. *)

val add_edge : t -> int -> int -> unit
(** Self-loops are ignored. Out-of-range nodes raise [Invalid_argument]. *)

val add_edges : t -> int -> Bitset.t -> unit
(** [add_edges g i s] adds an edge between [i] and every member of [s]
    other than [i], in place: one word-wise union into [i]'s row, then
    one bit per member in the other rows. [s] must have capacity
    [node_count g]. *)

val remove_edge : t -> int -> int -> unit
val connected : t -> int -> int -> bool
val degree : t -> int -> int
val edge_count : t -> int
val neighbours : t -> int -> int list
(** Ascending order. *)

val neighbours_bitset : t -> int -> Bitset.t
(** The node's adjacency row itself — shared with the graph, not a
    copy. Treat as read-only; mutating it corrupts the graph. Lets the
    clique enumerator use rows as its neighbour tables without an
    O(n²) rebuild. *)

val iter_neighbours : t -> int -> (int -> unit) -> unit
val fold_nodes : t -> ('a -> int -> 'a) -> 'a -> 'a
val complement : t -> t
val induced : t -> int list -> t * int array
(** [induced g nodes] is the subgraph induced by [nodes] with nodes
    renumbered [0..]; the returned array maps new indices back to the
    original node ids. *)

val degeneracy_order : t -> int array
(** A degeneracy ordering of the nodes: repeatedly remove a node of
    minimum degree in the remaining graph (smallest id on ties — fully
    deterministic). Every node has at most [d] neighbours *later* in the
    order, where [d] is the graph's degeneracy, so rooting a clique
    search at each node with only its later neighbours as candidates
    yields [n] subtrees of width at most [d]. Each removal updates the
    smaller of its live neighbourhood and its live non-neighbourhood:
    O(n² / 32 + Σ min(nbrs, non-nbrs) · log n), so a nearly complete
    graph peels as cheaply as a sparse one. *)

val pp : Format.formatter -> t -> unit
