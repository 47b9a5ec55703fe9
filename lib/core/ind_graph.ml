module R = Relational
module Q = Bcquery

let edges store thetas =
  let db = Tagged_store.db store in
  let seen = Hashtbl.create 256 in
  let acc = ref [] in
  let record i j =
    if i <> j then begin
      let key = if i < j then (i, j) else (j, i) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        acc := key :: !acc
      end
    end
  in
  List.iter
    (fun (theta : Q.Theta.t) ->
      (* projection value -> (txs with a matching lrel tuple,
                              txs with a matching rrel tuple) *)
      let buckets = R.Tuple.Tbl.create 256 in
      let bucket proj =
        match R.Tuple.Tbl.find_opt buckets proj with
        | Some cell -> cell
        | None ->
            let cell = (ref [], ref []) in
            R.Tuple.Tbl.replace buckets proj cell;
            cell
      in
      Array.iter
        (fun (tx : Pending.t) ->
          List.iter
            (fun tuple ->
              let left, _ =
                bucket (R.Tuple.project tuple theta.Q.Theta.lattrs)
              in
              left := tx.Pending.id :: !left)
            (Pending.rows_for tx theta.Q.Theta.lrel);
          List.iter
            (fun tuple ->
              let _, right =
                bucket (R.Tuple.project tuple theta.Q.Theta.rattrs)
              in
              right := tx.Pending.id :: !right)
            (Pending.rows_for tx theta.Q.Theta.rrel))
        db.Bcdb.pending;
      R.Tuple.Tbl.iter
        (fun _ (left, right) ->
          List.iter (fun i -> List.iter (fun j -> record i j) !right) !left)
        buckets)
    thetas;
  List.rev !acc

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
      R.Source.probe_from src other_rel ~cols:other_attrs ~from:my_attrs
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

(* Every Θ edge inside one bucket joins a transaction with a matching
   lrel row to one with a matching rrel row, so a bucket with both sides
   non-empty links all its transactions into one connected set: a star
   from the bucket's first transaction spans it. Linear in the members'
   rows, where the edges themselves can be quadratic. *)
let links db thetas members =
  let acc = ref [] in
  List.iter
    (fun (theta : Q.Theta.t) ->
      let buckets = R.Tuple.Tbl.create 64 in
      let push side tuple attrs id =
        let proj = R.Tuple.project tuple attrs in
        let left, right =
          match R.Tuple.Tbl.find_opt buckets proj with
          | Some cell -> cell
          | None ->
              let cell = (ref [], ref []) in
              R.Tuple.Tbl.replace buckets proj cell;
              cell
        in
        let l = if side then left else right in
        l := id :: !l
      in
      List.iter
        (fun id ->
          let tx = db.Bcdb.pending.(id) in
          List.iter
            (fun tuple -> push true tuple theta.Q.Theta.lattrs id)
            (Pending.rows_for tx theta.Q.Theta.lrel);
          List.iter
            (fun tuple -> push false tuple theta.Q.Theta.rattrs id)
            (Pending.rows_for tx theta.Q.Theta.rrel))
        members;
      R.Tuple.Tbl.iter
        (fun _ (left, right) ->
          match (!left, !right) with
          | [], _ | _, [] -> ()
          | l, r ->
              let hub = List.hd l in
              List.iter
                (fun j -> if j <> hub then acc := (hub, j) :: !acc)
                (List.rev_append l r))
        buckets)
    thetas;
  !acc

let base_edges store =
  let db = Tagged_store.db store in
  edges store (Q.Theta.of_inds (Bcdb.inds db))

let build store q base =
  let k = Tagged_store.tx_count store in
  let g = Bcgraph.Undirected.create k in
  List.iter (fun (i, j) -> Bcgraph.Undirected.add_edge g i j) base;
  let q_edges = edges store (Q.Theta.of_query (Q.Query.body q)) in
  List.iter (fun (i, j) -> Bcgraph.Undirected.add_edge g i j) q_edges;
  g
