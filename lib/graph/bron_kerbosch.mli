(** Maximal-clique enumeration: the Bron–Kerbosch algorithm (CACM 1973)
    with the pivoting rule of Tomita, Tanaka and Takahashi (TCS 2006),
    exactly the combination the paper uses inside OptDCSat (Section 6.3),
    rooted at a degeneracy ordering of the nodes (Eppstein–Löffler–Strash
    style): the outer level is split into one subtree per node, each of
    candidate width at most the graph's degeneracy.

    Enumeration comes in two flavours: a callback that may abort early
    — denial constraint checking stops at the first violating world — and
    a resumable step-wise generator that hands cliques out one at a time.
    Both walk the same tree in the same depth-first order. *)

val generator : ?interrupt:(unit -> bool) -> Undirected.t -> unit -> int list option
(** [generator g] is a stateful puller: each call produces the next
    maximal clique (ascending node list; isolated nodes yield singleton
    cliques) or [None] once the enumeration is exhausted. The traversal
    state lives in the returned closure, so several generators over the
    same graph are independent. Enumeration order is identical to
    {!iter_maximal_cliques}.

    [interrupt] is a cooperative cancellation hook, polled once per
    branching step of the search — i.e. {e between} yields too, so a
    caller's deadline cuts even an exponentially long gap separating two
    consecutive maximal cliques. Once it returns [true] the generator
    permanently answers [None]; the enumeration prefix already produced
    is unaffected. *)

val iter_maximal_cliques : Undirected.t -> (int list -> [ `Continue | `Stop ]) -> unit
(** Calls the function once per maximal clique (ascending node list,
    isolated nodes yield singleton cliques). Returning [`Stop] aborts the
    enumeration. *)

val maximal_cliques : Undirected.t -> int list list
(** All maximal cliques, in enumeration order. *)

val count_maximal_cliques : Undirected.t -> int
