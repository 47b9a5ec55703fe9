(** Connected components of an undirected graph. *)

val of_graph : Undirected.t -> int list list
(** Components as ascending node lists, ordered by smallest member;
    isolated nodes form singleton components. *)

val count : Undirected.t -> int
val component_of : Undirected.t -> int -> int list
(** The component containing the given node (BFS). *)

(** {2 Partition surgery}

    Incremental maintenance of a component partition under single-node
    removal with dense id re-packing (node ids above the removed one
    shift down by one — the pending-set convention). Removal can split
    only the part the node belonged to; every other part survives
    re-id'd. *)

val remove_node : int list list -> int -> int list list * int list
(** [remove_node parts node] is [(rest, survivors)]: the parts not
    containing [node], re-id'd, and the surviving members of the part
    that did contain it, re-id'd — for the caller to re-split with
    {!split_members} against its edge oracle. *)

val split_members : int list -> (int * int) list -> int list list
(** [split_members members edges] re-splits [members] into connected
    sub-parts under [edges], which must only join members. Sub-parts are
    ascending node lists, ordered by smallest member. O(|members| +
    |edges|), independent of the node id range. *)

val merge : int list list -> int list list -> int list list
(** Merge two part lists back into canonical partition order (by
    smallest member), dropping empty parts. *)

val add_node : int list list -> int -> (int * int) list -> int list list
(** [add_node parts node edges] is the partition after inserting [node]
    (not yet in any part) with its incident [edges]: the parts those
    edges reach merge with [node] into one, every other part is kept.
    The result is in {!of_graph}'s canonical order, so it equals
    [of_graph] of the grown graph. O(members) — no union-find
    rebuild. *)
