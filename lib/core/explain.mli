(** Human-readable reports about a denial-constraint check: the query's
    syntactic properties, the complexity class of the instance, which
    solver ran, and a bounded trace of its decisions (components skipped
    by Covers, cliques enumerated, worlds evaluated). *)

type report = {
  query : string;
  monotone : bool;
  monotone_reason : string option;  (** Why not, when not monotone. *)
  connected : bool;
  complexity : Complexity.verdict;
  strategy : string;
  outcome : Dcsat.outcome;
  trace : Dcsat.event list;  (** At most [max_events], execution order. *)
  trace_truncated : bool;
}

val run :
  ?jobs:int ->
  ?budget:Engine.Budget.t ->
  ?max_events:int ->
  Session.t ->
  Bcquery.Query.t ->
  (report, string) result
(** Solve through {!Solver.solve} (tracing only applies to the
    Naive/Opt paths; tractable and brute-force runs yield an empty
    trace). [max_events] defaults to 50. [jobs] (default 1) is
    OptDCSat's worker count; with [jobs > 1] the trace's event order
    across components is nondeterministic, and it may show components
    past the winning one. [budget] bounds the enumerating solvers as in
    {!Solver.solve}; an exhausted budget reports an UNKNOWN result. *)

val pp_event : labels:(int -> string) -> Format.formatter -> Dcsat.event -> unit
val pp : labels:(int -> string) -> Format.formatter -> report -> unit
(** [labels] maps transaction ids to display names
    (e.g. [fun i -> db.pending.(i).label]). *)

val to_string : Bcdb.t -> report -> string
