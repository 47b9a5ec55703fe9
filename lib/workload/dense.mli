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
