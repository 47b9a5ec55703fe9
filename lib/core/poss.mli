(** Possible worlds (Section 4). A world is identified by the set of
    pending transactions it includes, as a bitset over transaction ids;
    the world's tuple set is [R ∪ ⋃ T_i].

    Recognition ([is_possible_world], Proposition 1) is PTIME via a
    greedy closure: functional dependencies are preserved under subsets
    (so only the final set needs checking) while inclusion dependencies
    are monotone under additions (so greedily appending any transaction
    whose inclusion requirements are already met is order-insensitive and
    complete). *)

val is_possible_world : Tagged_store.t -> Bcgraph.Bitset.t -> bool
(** Whether [R ⇒T,I R ∪ (chosen transactions)]. Reads through views of
    its own: the store's world is never switched. *)

val reachable_subset : Tagged_store.t -> Bcgraph.Bitset.t -> Bcgraph.Bitset.t
(** The unique maximal subset of the given transactions reachable under
    the inclusion dependencies, assuming the given set is fd-consistent
    as a whole; used by recognition and by [getMaximal]-style closures. *)

val generator : Tagged_store.t -> unit -> Bcgraph.Bitset.t option
(** A resumable pull-based enumerator over every possible world
    (including the empty world [R]), in the same order as {!enumerate}.
    Each call performs at most one BFS expansion step, on a
    {!Tagged_store.view} the generator owns (the store's world never
    moves), so the solver engine can hand worlds out as work items. Exponential in the number of pending
    transactions; raises [Invalid_argument] when more than 24
    transactions are pending. *)

val enumerate : Tagged_store.t -> (Bcgraph.Bitset.t -> [ `Continue | `Stop ]) -> unit
(** Enumerate every possible world exactly once (including the empty
    world [R]). Exponential in the number of pending transactions —
    intended for the brute-force reference solver and for tests; raises
    [Invalid_argument] when more than 24 transactions are pending. *)

val count : Tagged_store.t -> int
(** [|Poss(D)|] by exhaustive enumeration (same bound as {!enumerate}). *)
