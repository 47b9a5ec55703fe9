(** The naive greedy append loop: repeatedly make visible any candidate
    transaction whose addition keeps the given constraints satisfied,
    until a fixpoint. Each successful step is one application of the
    can-append relation [→T,I] restricted to the candidate set.

    It has two roles left. {!Poss} uses it, with the inds alone, for
    reachability in possible-world recognition, so [Dcsat.brute_force]
    stays an oracle that shares no code with {!Get_maximal}'s
    propagation. And with the full constraint set it is the test oracle
    {!Get_maximal.run} is checked against on every clique.

    The consistency check per step is incremental: only the candidate's
    own rows are examined (fd violations must involve a new tuple; ind
    support can only grow). The pass rescans the remaining candidates
    and switches the store's world after every inclusion. *)

val run :
  Tagged_store.t ->
  constraints:Relational.Constr.t list ->
  candidates:Bcgraph.Bitset.t ->
  Bcgraph.Bitset.t
(** Returns the set of transactions appended. The store's active world is
    restored before returning. *)
