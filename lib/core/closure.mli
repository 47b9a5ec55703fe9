(** The naive greedy append loop: repeatedly make visible any candidate
    transaction whose addition keeps the given constraints satisfied,
    until a fixpoint. Each successful step is one application of the
    can-append relation [→T,I] restricted to the candidate set.

    It has three roles. {!Poss} uses it, with the inds alone, for
    reachability in possible-world recognition, so [Dcsat.brute_force]
    stays an oracle that shares no code with {!Get_maximal}'s
    propagation. {!Likelihood.repair} runs it with the full constraint
    set over a proposal in probability order. And with the full
    constraint set it is the test oracle {!Get_maximal.run} is checked
    against on every clique.

    The consistency check per step is incremental: only the candidate's
    own rows are examined (fd violations must involve a new tuple; ind
    support can only grow). Each pass tries the remaining candidates in
    their given order, on a {!Tagged_store.view} of the store whose
    world grows with every inclusion. *)

val run :
  Tagged_store.t ->
  constraints:Relational.Constr.t list ->
  candidates:int list ->
  Bcgraph.Bitset.t
(** [candidates] are transaction ids in try order. Returns the set of
    transactions appended. The store's world is never switched. *)
