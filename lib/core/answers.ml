module R = Relational
module Q = Bcquery

type answer = { values : R.Tuple.t; world : int list option }

let validate_vars (body : Q.Cq.t) vars =
  match List.find_opt (fun v -> not (List.mem v body.Q.Cq.vars)) vars with
  | Some v -> Error (Printf.sprintf "unknown output variable %s" v)
  | None -> Ok ()

let projection (body : Q.Cq.t) vars =
  let index v =
    let rec go i = function
      | [] -> assert false
      | v' :: _ when String.equal v v' -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 body.Q.Cq.vars
  in
  let positions = List.map index vars in
  fun values -> Array.of_list (List.map (fun i -> values.(i)) positions)

(* Distinct projections of the query matches over the current source. *)
let distinct_answers src body vars =
  let project = projection body vars in
  let seen = R.Tuple.Tbl.create 64 in
  let acc = ref [] in
  Q.Eval.iter_matches src Q.Eval.(evaluator (compile body)) (fun values _support ->
      let t = project values in
      if not (R.Tuple.Tbl.mem seen t) then begin
        R.Tuple.Tbl.replace seen t ();
        acc := t :: !acc
      end;
      `Continue);
  List.sort R.Tuple.compare !acc

let certain session (body : Q.Cq.t) ~vars =
  match validate_vars body vars with
  | Error _ as e -> e
  | Ok () ->
      let store = Session.store session in
      if Q.Cq.is_positive body then
        (* Monotone: true over R stays true in every world ⊇ R. *)
        Ok (distinct_answers (Tagged_store.base_source store) body vars)
      else if Tagged_store.tx_count store > 24 then
        Error "negated body over too many pending transactions for enumeration"
      else begin
        (* Candidates are the answers over R (a possible world), then
           each must survive every other world. *)
        let candidates =
          distinct_answers (Tagged_store.base_source store) body vars
        in
        let survivors = Hashtbl.create 16 in
        List.iter (fun t -> Hashtbl.replace survivors t true) candidates;
        let view = Tagged_store.view store in
        Poss.enumerate store (fun world ->
            Tagged_store.set_world view world;
            let here =
              distinct_answers (Tagged_store.source view) body vars
            in
            Hashtbl.iter
              (fun t alive ->
                if alive && not (List.exists (R.Tuple.equal t) here) then
                  Hashtbl.replace survivors t false)
              (Hashtbl.copy survivors);
            `Continue);
        Ok
          (List.filter
             (fun t -> Hashtbl.find_opt survivors t = Some true)
             candidates)
      end

let possible session (body : Q.Cq.t) ~vars =
  match validate_vars body vars with
  | Error _ as e -> e
  | Ok () ->
      let candidates =
        distinct_answers
          (Tagged_store.union_source (Session.store session))
          body vars
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | t :: rest -> (
            let bindings =
              List.mapi (fun i v -> (v, R.Tuple.get t i)) vars
            in
            let specialized = Q.Query.Boolean (Q.Cq.substitute body bindings) in
            match Solver.solve session specialized with
            | Error msg -> Error msg
            | Ok (outcome, _) ->
                if outcome.Dcsat.satisfied then go acc rest
                else
                  go
                    ({ values = t; world = outcome.Dcsat.witness_world } :: acc)
                    rest)
      in
      go [] candidates

let uncertain session body ~vars =
  match certain session body ~vars with
  | Error _ as e -> e
  | Ok certain_answers -> (
      match possible session body ~vars with
      | Error _ as e -> e
      | Ok possible_answers ->
          Ok
            (List.filter_map
               (fun a ->
                 if List.exists (R.Tuple.equal a.values) certain_answers then
                   None
                 else Some a.values)
               possible_answers))
