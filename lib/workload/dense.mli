(** Dense-component worst case for the clique enumeration: [pairs]
    key-conflicting transaction pairs whose compatibility graph is one
    cocktail-party component K_{pairs×2} with [2^pairs] maximal worlds.

    This is the adversarial regime for the clique enumeration: a single
    giant component whose cliques all come from one sequential producer
    behind the engine's claim lock. The paired query is satisfied but undecidable by
    the pre-check, so every world must be materialized and evaluated. *)

val db : pairs:int -> Bccore.Bcdb.t
(** Fresh database with [2 * pairs] single-row pending transactions;
    transactions [2j] and [2j+1] write the two conflicting values of
    key [j]. Raises [Invalid_argument] outside [1..30]. *)

val query : unit -> Bcquery.Query.t
(** [q() :- Acct(x,"a"), Acct(x,"b")] — true over [R ∪ T], false over
    every possible world: forces a full enumeration ending SATISFIED. *)

val worlds : pairs:int -> int
(** [2^pairs], the number of maximal worlds of {!db}. *)

(** {2 The grouped instance}

    [groups] copies of the dense component, one per value of a group
    column: OptDCSat sees [groups] covered components of [2^pairs]
    worlds each, all satisfied, so it must walk every one of them. This
    is the regime where the engine's workers share the work: each
    component is one group of worlds. *)

val grouped : groups:int -> pairs:int -> Bccore.Bcdb.t
(** Fresh database over [Acct(g, id, val)] with key [(g, id)] and
    [2 * groups * pairs] single-row pending transactions: within group
    [g], two transactions write the two conflicting values of key
    [(g, j)] for each [j < pairs]. Raises [Invalid_argument] unless
    [groups >= 1] and [pairs] is in [1..30]. *)

val grouped_query : unit -> Bcquery.Query.t
(** [q() :- Acct(g,x,"a"), Acct(g,y,"b"), Acct(g,x,"b")] — true over
    [R ∪ T], false over every possible world, connected through [g]. *)

val grouped_worlds : groups:int -> pairs:int -> int
(** [groups * 2^pairs], the maximal worlds OptDCSat evaluates on
    {!grouped}. *)
