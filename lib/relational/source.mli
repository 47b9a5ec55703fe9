(** Read-only access interface over some collection of relations.

    The query evaluator and the constraint checker are written against
    this record so that they work uniformly over a plain {!Database.t},
    over a possible world materialized as a visibility bitset (the core
    library's tagged store), or over any other tuple source. *)

type probe = {
  count : Value.t array -> int;
      (** Upper bound on the number of matches; the join-ordering
          heuristic. *)
  iter : Value.t array -> (Tuple.t -> unit) -> unit;
      (** Every visible tuple agreeing with the keys on the prepared
          columns. The keys are read while iterating: do not mutate them
          until [iter] returns. Exceptions raised by the callback
          propagate (that is how a caller stops early). *)
}
(** An access path resolved once for one relation and one set of bound
    columns. Keys carry one value per prepared column, in the prepared
    (ascending) column order. The probe over no column is the full
    read: [(src.prepare rel [||]).iter [||]] visits every visible tuple
    of [rel] once, and its [count] is the relation's size (possibly an
    upper bound). *)

type t = {
  catalog : Schema.t;
  prepare : string -> int array -> probe;
      (** [prepare rel cols], [cols] strictly ascending: the probe for
          [rel] with exactly [cols] bound. Implementations resolve their
          indexes here, once, so a probe call touches no catalog and
          builds no key; the core tagged store also caches the handle
          per (view, relation, columns). *)
  mem : string -> Tuple.t -> bool;
      (** Visible membership test (used for negated atoms). *)
}

val schema : t -> string -> Schema.relation
(** Raises [Not_found] for an unknown relation. *)

val find_binds :
  t -> string -> (int * Value.t) list -> (Tuple.t -> bool) -> Tuple.t option
(** [find_binds src rel binds p]: the first tuple of [rel] agreeing with
    every [(column, value)] bind that satisfies [p], in {!probe.iter}
    order, through one [prepare]. Binds may come in any column order;
    repeated columns collapse, and a column bound to two different
    values matches nothing. For one-off probes: hot loops should
    prepare their probe once ({!probe_from}). *)

val probe_from :
  t ->
  string ->
  cols:int list ->
  from:int list ->
  Tuple.t ->
  (Tuple.t -> unit) ->
  unit
(** [probe_from src rel ~cols ~from] prepares (on first use) one probe of
    [rel] binding each column [cols_i] to the value at position [from_i]
    of the tuple it is then applied to, and iterates the matches like
    {!probe.iter}. Columns may come in any order and repeat; a column
    bound from two positions holding different values matches nothing.
    Apply it once per constraint and reuse it for every tuple: a call
    allocates nothing. The applied probe fills one scratch key array, so
    it must not be re-entered from its own callback. *)
