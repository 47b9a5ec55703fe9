module R = Relational
module Undirected = Bcgraph.Undirected
module Bitset = Bcgraph.Bitset

type t = {
  graph : Undirected.t;
  node_ok : bool array;
  conflicts : (int * int) list;
}

let conflict_count t = List.length t.conflicts

(* Drop one node and densely re-id the rest (ids above [j] shift down by
   one, matching [Bcdb.create_unchecked] after an eviction). Node
   validity and pairwise conflicts of the survivors are untouched — both
   depend only on R and the transactions' own rows — so each surviving
   row is one word shift and the conflict list one re-id pass. *)
let remove g j =
  let k = Array.length g.node_ok in
  if j < 0 || j >= k then invalid_arg "Fd_graph.remove: no such node";
  let remap i = if i < j then i else i - 1 in
  {
    graph = Undirected.remove_node g.graph j;
    node_ok =
      Array.init (k - 1) (fun i -> g.node_ok.(if i < j then i else i + 1));
    conflicts =
      List.filter_map
        (fun (a, b) -> if a = j || b = j then None else Some (remap a, remap b))
        g.conflicts;
  }

let invalidate g ~node_ok =
  if Array.length node_ok <> Array.length g.node_ok then
    invalid_arg "Fd_graph.invalidate: node count mismatch";
  let lost = ref [] in
  Array.iteri
    (fun i ok ->
      if ok && not g.node_ok.(i) then
        invalid_arg "Fd_graph.invalidate: a node regained validity";
      if g.node_ok.(i) && not ok then lost := i :: !lost)
    node_ok;
  match !lost with
  | [] -> { g with node_ok }
  | lost ->
      let graph = Undirected.copy g.graph in
      List.iter (Undirected.isolate graph) lost;
      {
        graph;
        node_ok;
        conflicts =
          List.filter (fun (a, b) -> node_ok.(a) && node_ok.(b)) g.conflicts;
      }

(* Pending transactions whose rows collide with transaction [id] on some
   fd (same lhs projection, different rhs), found through the store's
   indexes over R ∪ T. *)
let conflicts_of store id =
  let db = Tagged_store.db store in
  let src = Tagged_store.union_source store in
  let tx = db.Bcdb.pending.(id) in
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (f : R.Constr.fd) ->
      let probe =
        R.Source.probe_from src f.R.Constr.frel ~cols:f.R.Constr.lhs
          ~from:f.R.Constr.lhs
      in
      List.iter
        (fun tuple ->
          let rhs = R.Tuple.project tuple f.R.Constr.rhs in
          probe tuple (fun other ->
              if not (R.Tuple.equal (R.Tuple.project other f.R.Constr.rhs) rhs)
              then
                List.iter
                  (fun origin ->
                    if origin >= 0 && origin <> id then
                      Hashtbl.replace acc origin ())
                  (Tagged_store.origins store f.R.Constr.frel other)))
        (Pending.rows_for tx f.R.Constr.frel))
    (Bcdb.fds db);
  Hashtbl.fold (fun j () l -> j :: l) acc [] |> List.sort Int.compare

(* One edge definition for [build] and [extend]: a valid node is
   adjacent to every other valid node it does not conflict with. *)
let valid_mask node_ok =
  let mask = Bitset.create (Array.length node_ok) in
  Array.iteri (fun i ok -> if ok then Bitset.add mask i) node_ok;
  mask

let extend g store ~valid:ok =
  let k = Tagged_store.tx_count store in
  let id = k - 1 in
  if Array.length g.node_ok <> id then
    invalid_arg "Fd_graph.extend: store is not one transaction ahead";
  let conflicting = conflicts_of store id in
  let graph = Undirected.extend g.graph 1 in
  let node_ok = Array.append g.node_ok [| ok |] in
  let conflicts =
    if not ok then g.conflicts
    else begin
      let row = valid_mask node_ok in
      List.iter (Bitset.remove row) conflicting;
      Undirected.add_edges graph id row;
      (* [id] tops every pair, so a merge keeps the list sorted. *)
      List.merge compare g.conflicts
        (List.filter_map
           (fun j -> if node_ok.(j) then Some (j, id) else None)
           conflicting)
    end
  in
  { graph; node_ok; conflicts }

(* One fd's rows sharing an lhs: transaction id and row, newest first. *)
type bucket = Nil | Row of int * R.Tuple.t * bucket

let build store ~node_ok =
  let db = Tagged_store.db store in
  let fds = Bcdb.fds db in
  let k = Tagged_store.tx_count store in
  if Array.length node_ok <> k then
    invalid_arg "Fd_graph.build: node_ok length mismatch";
  (* Pairwise conflicts: bucket pending rows by their fd-lhs values,
     hashed and compared in place — no projection is built. *)
  let conflict = Hashtbl.create 64 in
  let record i j =
    let key = if i < j then (i, j) else (j, i) in
    Hashtbl.replace conflict key ()
  in
  List.iter
    (fun (f : R.Constr.fd) ->
      let lhs = Array.of_list f.R.Constr.lhs
      and rhs = Array.of_list f.R.Constr.rhs in
      let module Lhs = Hashtbl.Make (struct
        type t = R.Tuple.t

        let equal a b = R.Tuple.agree_on a lhs b lhs
        let hash t = R.Tuple.hash_on t lhs
      end) in
      let buckets = Lhs.create 256 in
      Array.iter
        (fun (tx : Pending.t) ->
          List.iter
            (fun (rel, tuple) ->
              if String.equal rel f.R.Constr.frel then
                let prev =
                  match Lhs.find buckets tuple with
                  | b -> b
                  | exception Not_found -> Nil
                in
                Lhs.replace buckets tuple (Row (tx.Pending.id, tuple, prev)))
            tx.Pending.rows)
        db.Bcdb.pending;
      let rec against i t = function
        | Nil -> ()
        | Row (j, u, rest) ->
            if i <> j && not (R.Tuple.agree_on t rhs u rhs) then record i j;
            against i t rest
      in
      let rec pairs = function
        | Nil -> ()
        | Row (i, t, rest) ->
            against i t rest;
            pairs rest
      in
      Lhs.iter (fun _ bucket -> pairs bucket) buckets)
    fds;
  let conflicts =
    Hashtbl.fold
      (fun (i, j) () acc ->
        if node_ok.(i) && node_ok.(j) then (i, j) :: acc else acc)
      conflict []
    |> List.sort compare
  in
  let graph =
    Undirected.of_non_edges k ~nodes:(valid_mask node_ok) ~non_edges:conflicts
  in
  { graph; node_ok; conflicts }
