(** Read-only access interface over some collection of relations.

    The query evaluator and the constraint checker are written against
    this record so that they work uniformly over a plain {!Database.t},
    over a possible world materialized as a visibility bitset (the core
    library's tagged store), or over any other tuple source. *)

type t = {
  catalog : Schema.t;
  scan : string -> Tuple.t Seq.t;
      (** All visible tuples of the named relation. *)
  lookup : string -> (int * Value.t) list -> Tuple.t Seq.t;
      (** Visible tuples agreeing with all [(position, value)] binds.
          Implementations are encouraged to serve this from an index and
          to cache the visibility-filtered posting per world — the core
          tagged store stamps each cached filter with a world epoch and
          reuses it until the world actually changes. *)
  mem : string -> Tuple.t -> bool;
      (** Visible membership test (used for negated atoms). *)
  cardinality : string -> int;
      (** Number of visible tuples (may be an upper bound). *)
  selectivity : string -> (int * Value.t) list -> int;
      (** Upper bound on [lookup] result size; join-ordering heuristic. *)
}

val schema : t -> string -> Schema.relation
(** Raises [Not_found] for an unknown relation. *)
