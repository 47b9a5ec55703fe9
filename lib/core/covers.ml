module Q = Bcquery

let covers store component q =
  let saved = Tagged_store.world store in
  Tagged_store.set_world_list store component;
  let src = Tagged_store.source store in
  let body = Q.Query.body q in
  let atom_covered (a : Q.Atom.t) =
    match Q.Atom.constants a with
    | [] -> true
    | binds ->
        Option.is_some
          (Relational.Source.find_binds src a.Q.Atom.rel binds (fun _ -> true))
  in
  let ok = List.for_all atom_covered body.Q.Cq.positive in
  Tagged_store.set_world store saved;
  ok
