module Q = Bcquery

let mirror (th : Q.Theta.t) =
  { Q.Theta.lrel = th.Q.Theta.rrel; lattrs = th.rattrs; rrel = th.lrel; rattrs = th.lattrs }

let query_thetas db q =
  let ind = Q.Theta.of_inds (Bcdb.inds db) in
  List.filter
    (fun th -> not (List.mem th ind || List.mem (mirror th) ind))
    (Q.Theta.of_query (Q.Query.body q))

(* Per theta, the members' [lrel] rows bucketed on [lattrs] (left) and
   their [rrel] rows on [rattrs] (right), in place; each bucket's star
   spans its edges. Linear in the members' rows, where the edges
   themselves can be quadratic. *)
let theta_links (pending : Pending.t array) thetas members f =
  let rows = List.fold_left (fun n i -> n + Pending.size pending.(i)) 0 members in
  List.iter
    (fun (th : Q.Theta.t) ->
      let lattrs = Array.of_list th.Q.Theta.lattrs
      and rattrs = Array.of_list th.Q.Theta.rattrs in
      let tbl = Buckets.create rows in
      List.iter
        (fun i ->
          List.iter
            (fun (rel, row) ->
              if String.equal rel th.Q.Theta.lrel then
                Buckets.add_left (Buckets.get tbl row lattrs) i;
              if String.equal rel th.Q.Theta.rrel then
                Buckets.add_right (Buckets.get tbl row rattrs) i)
            pending.(i).Pending.rows)
        members;
      Buckets.iter tbl (fun b -> Buckets.iter_links b f))
    thetas

let components req (db : Bcdb.t) q =
  let k = Array.length db.Bcdb.pending in
  let uf = Bcgraph.Union_find.create k in
  let union = Bcgraph.Union_find.union uf in
  Requirements.iter_links req union;
  (match query_thetas db q with
  | [] -> ()
  | thetas -> theta_links db.Bcdb.pending thetas (List.init k Fun.id) union);
  Bcgraph.Union_find.groups uf

let links (db : Bcdb.t) qthetas members =
  let acc = ref [] in
  theta_links db.Bcdb.pending
    (Q.Theta.of_inds (Bcdb.inds db) @ qthetas)
    members
    (fun i j -> acc := (i, j) :: !acc);
  !acc

let edges_for_tx store thetas id =
  let db = Tagged_store.db store in
  let tx = db.Bcdb.pending.(id) in
  let src = Tagged_store.union_source store in
  let acc = Hashtbl.create 8 in
  let record j =
    if j >= 0 && j <> id then
      Hashtbl.replace acc (if j < id then (j, id) else (id, j)) ()
  in
  (* For each theta, match this transaction's lrel rows against everyone's
     rrel rows (via index lookup on the projection columns) and vice
     versa. *)
  let probe ~my_attrs ~my_rel ~other_rel ~other_attrs =
    let matches =
      Relational.Source.probe_from src other_rel ~cols:other_attrs ~from:my_attrs
    in
    List.iter
      (fun tuple ->
        matches tuple (fun other ->
            List.iter record (Tagged_store.origins store other_rel other)))
      (Pending.rows_for tx my_rel)
  in
  List.iter
    (fun (theta : Q.Theta.t) ->
      probe ~my_attrs:theta.Q.Theta.lattrs ~my_rel:theta.Q.Theta.lrel
        ~other_rel:theta.Q.Theta.rrel ~other_attrs:theta.Q.Theta.rattrs;
      probe ~my_attrs:theta.Q.Theta.rattrs ~my_rel:theta.Q.Theta.rrel
        ~other_rel:theta.Q.Theta.lrel ~other_attrs:theta.Q.Theta.lattrs)
    thetas;
  Hashtbl.fold (fun e () l -> e :: l) acc [] |> List.sort compare
