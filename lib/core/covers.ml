module Q = Bcquery

let covers store component q =
  let view = Tagged_store.view store in
  Tagged_store.set_world_list view component;
  let src = Tagged_store.source view in
  let body = Q.Query.body q in
  let atom_covered (a : Q.Atom.t) =
    match Q.Atom.constants a with
    | [] -> true
    | binds ->
        Option.is_some
          (Relational.Source.find_binds src a.Q.Atom.rel binds (fun _ -> true))
  in
  List.for_all atom_covered body.Q.Cq.positive
