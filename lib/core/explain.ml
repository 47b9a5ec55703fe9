module Q = Bcquery

type report = {
  query : string;
  monotone : bool;
  monotone_reason : string option;
  connected : bool;
  complexity : Complexity.verdict;
  strategy : string;
  outcome : Dcsat.outcome;
  trace : Dcsat.event list;
  trace_truncated : bool;
}

let run ?jobs ?budget ?(max_events = 50) session q =
  let monotone, monotone_reason =
    match Q.Monotone.analyze q with
    | Q.Monotone.Monotone -> (true, None)
    | Q.Monotone.Not_monotone reason -> (false, Some reason)
  in
  let connected =
    match q with
    | Q.Query.Boolean body -> Q.Gaifman.is_connected body
    | Q.Query.Aggregate _ -> false
  in
  let complexity = Complexity.classify (Session.db session) q in
  let events = ref [] in
  let count = ref 0 in
  let truncated = ref false in
  let on_event e =
    incr count;
    if !count <= max_events then events := e :: !events else truncated := true
  in
  let traced =
    Result.map
      (fun (outcome, strategy) -> (outcome, Solver.strategy_name strategy))
      (Solver.solve ?jobs ?budget ~on_event session q)
  in
  Result.map
    (fun (outcome, strategy) ->
      {
        query = Q.Query.to_string q;
        monotone;
        monotone_reason;
        connected;
        complexity;
        strategy;
        outcome;
        trace = List.rev !events;
        trace_truncated = !truncated;
      })
    traced

let pp_ids ~labels ppf ids =
  Format.fprintf ppf "{%s}" (String.concat ", " (List.map labels ids))

let pp_event ~labels ppf = function
  | Dcsat.Precheck_decided ->
      Format.pp_print_string ppf
        "pre-check: q is false over R ∪ T, hence over every world"
  | Dcsat.Components_found n -> Format.fprintf ppf "%d components in G^{q,ind}" n
  | Dcsat.Component_skipped ids ->
      Format.fprintf ppf "component %a skipped (constants not covered)"
        (pp_ids ~labels) ids
  | Dcsat.Component_entered ids ->
      Format.fprintf ppf "exploring component %a" (pp_ids ~labels) ids
  | Dcsat.Clique_found ids ->
      Format.fprintf ppf "maximal clique %a" (pp_ids ~labels) ids
  | Dcsat.World_evaluated (ids, value) ->
      Format.fprintf ppf "world R ∪ %a: q is %b" (pp_ids ~labels) ids value

let pp ~labels ppf r =
  Format.fprintf ppf "@[<v>query: %s@ " r.query;
  Format.fprintf ppf "monotone: %b%s@ " r.monotone
    (match r.monotone_reason with Some why -> " (" ^ why ^ ")" | None -> "");
  Format.fprintf ppf "connected: %b@ " r.connected;
  Format.fprintf ppf "complexity class: %a@ " Complexity.pp r.complexity;
  Format.fprintf ppf "strategy: %s@ " r.strategy;
  Format.fprintf ppf "result: %s@ "
    (match r.outcome.Dcsat.verdict with
    | Dcsat.Satisfied -> "SATISFIED (holds in every world)"
    | Dcsat.Violated _ -> "UNSATISFIED (violated in some world)"
    | Dcsat.Unknown reason ->
        Printf.sprintf
          "UNKNOWN (budget exhausted: %s; enumeration incomplete)"
          (Engine.Budget.reason_name reason));
  if r.trace <> [] then begin
    Format.fprintf ppf "trace:@ ";
    List.iter (fun e -> Format.fprintf ppf "  %a@ " (pp_event ~labels) e) r.trace;
    if r.trace_truncated then Format.fprintf ppf "  ... (truncated)@ "
  end;
  Format.fprintf ppf "@]"

let to_string db r =
  let labels i = db.Bcdb.pending.(i).Pending.label in
  Format.asprintf "%a" (pp ~labels) r
