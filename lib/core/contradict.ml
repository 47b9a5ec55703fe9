module R = Relational
module V = R.Value

let mutate = function
  | V.Str s -> V.Str (s ^ "~dbl")
  | V.Int i -> V.Int ((i * 2) + 1_000_003)
  | V.Float f -> V.Float (f +. 1_000_003.5)
  | V.Bool b -> V.Bool (not b)
  | V.Null -> V.Int 1_000_003

let conflicts_on_fd session id rows =
  let db = Session.db session in
  let target = db.Bcdb.pending.(id) in
  List.exists
    (fun (f : R.Constr.fd) ->
      List.exists
        (fun orig ->
          List.exists
            (fun (rel, tuple) ->
              String.equal rel f.R.Constr.frel
              && R.Tuple.equal
                   (R.Tuple.project orig f.R.Constr.lhs)
                   (R.Tuple.project tuple f.R.Constr.lhs)
              && not
                   (R.Tuple.equal
                      (R.Tuple.project orig f.R.Constr.rhs)
                      (R.Tuple.project tuple f.R.Constr.rhs)))
            rows)
        (Pending.rows_for target f.R.Constr.frel))
    (Bcdb.fds db)

let includable_from_base session rows =
  R.Check.outcome (Tagged_store.checker (Session.store session)) rows
  = R.Check.Satisfied

(* Candidate rhs values to rename: for each fd over a relation the target
   touches, each row's value at an rhs position outside the lhs. *)
let rename_candidates db (target : Pending.t) =
  List.concat_map
    (fun (f : R.Constr.fd) ->
      let rhs_only =
        List.filter (fun p -> not (List.mem p f.R.Constr.lhs)) f.R.Constr.rhs
      in
      List.concat_map
        (fun tuple -> List.map (fun p -> tuple.(p)) rhs_only)
        (Pending.rows_for target f.R.Constr.frel))
    (Bcdb.fds db)
  |> List.sort_uniq V.compare

let rename_everywhere rows v v' =
  List.map
    (fun (rel, tuple) ->
      ( rel,
        Array.map (fun x -> if V.equal x v then v' else x) tuple ))
    rows

let derive session id =
  let db = Session.db session in
  if id < 0 || id >= Array.length db.Bcdb.pending then
    Error "no such pending transaction"
  else begin
    let target = db.Bcdb.pending.(id) in
    let viable candidate =
      conflicts_on_fd session id candidate
      && includable_from_base session candidate
    in
    let attempt v =
      let candidate = rename_everywhere target.Pending.rows v (mutate v) in
      if viable candidate then Some candidate else None
    in
    match List.find_map attempt (rename_candidates db target) with
    | Some candidate -> Ok candidate
    | None ->
        Error
          "no single-value renaming yields an includable conflicting \
           transaction (the target may have no fd-protected rows, or its \
           inclusion dependencies cannot be met from the current state)"
  end
