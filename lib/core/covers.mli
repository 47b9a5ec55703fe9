(** Constant coverage (Section 6.2): a component of pending transactions
    only needs to be explored when, together with the current state, it
    can cover the constants of every positive atom of the query — i.e.
    for every atom, some tuple agrees with all of the atom's constant
    positions. Components failing this test cannot yield a satisfying
    assignment and are skipped by OptDCSat. *)

val covers : Tagged_store.t -> int list -> Bcquery.Query.t -> bool
(** [covers store component q] — [Covers(R, T', q)] with [T'] the listed
    transactions, read through a {!Tagged_store.view}: the store's
    world is never switched. *)
