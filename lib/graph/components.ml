let of_graph g =
  let n = Undirected.node_count g in
  let uf = Union_find.create n in
  for i = 0 to n - 1 do
    Undirected.iter_neighbours g i (fun j -> if j > i then Union_find.union uf i j)
  done;
  Union_find.groups uf

let count g = List.length (of_graph g)

(* --- partition surgery (single-node removal) ----------------------- *)

(* Removing one node only ever touches the part that contains it: every
   other part keeps its edges and merely re-identifies (dense re-packing
   shifts ids above [node] down by one, mirroring the id re-packing of a
   pending-set removal). The touched part's survivors are returned for
   the caller to re-split against an edge oracle — the partition itself
   has no edges to consult. *)
let remove_node parts node =
  let reid x = if x > node then x - 1 else x in
  let touched, rest = List.partition (List.mem node) parts in
  let rest = List.map (List.map reid) rest in
  let survivors =
    match touched with
    | [] -> []
    | part :: _ ->
        List.filter_map
          (fun x -> if x = node then None else Some (reid x))
          part
  in
  (rest, survivors)

(* Re-split [members] into connected sub-parts under [edges] (which must
   join members only), on a union-find over the members alone — O(|members|
   + |edges|), whatever the id range. Members are sorted first, so the
   sub-parts come out in canonical form: ascending node lists ordered by
   smallest member. *)
let split_members members edges =
  let ids = Array.of_list (List.sort_uniq Int.compare members) in
  let local = Hashtbl.create (Array.length ids) in
  Array.iteri (fun i m -> Hashtbl.replace local m i) ids;
  let uf = Union_find.create (Array.length ids) in
  List.iter
    (fun (a, b) ->
      Union_find.union uf (Hashtbl.find local a) (Hashtbl.find local b))
    edges;
  List.map (List.map (fun i -> ids.(i))) (Union_find.groups uf)

(* Canonical partition order: parts ascending, sorted by smallest member
   — the invariant {!of_graph} establishes and every incremental
   maintainer must preserve. *)
let merge a b =
  List.sort
    (fun p q ->
      match (p, q) with
      | x :: _, y :: _ -> Int.compare x y
      | [], _ -> -1
      | _, [] -> 1)
    (List.filter (fun p -> p <> []) (a @ b))

(* --- partition surgery (single-node insertion) ---------------------- *)

(* Insert [part] (non-empty, ascending) before the first part whose
   smallest member is larger: the canonical order of {!of_graph}. *)
let insert_part part parts =
  let head = List.hd part in
  let rec go = function
    | (m :: _ as q) :: rest when m < head -> q :: go rest
    | rest -> part :: rest
  in
  go parts

(* A new node can only merge the parts its incident edges reach: those
   parts and the node become one, every other part is kept as is. *)
let add_node parts node edges =
  let nbrs =
    List.filter_map
      (fun (a, b) ->
        if a = node && b <> node then Some b
        else if b = node && a <> node then Some a
        else None)
      edges
  in
  let size = 1 + List.fold_left max node nbrs in
  let mark = Array.make size false in
  List.iter (fun m -> mark.(m) <- true) nbrs;
  let touched, rest =
    List.partition (List.exists (fun m -> m < size && mark.(m))) parts
  in
  insert_part (List.fold_left (List.merge Int.compare) [ node ] touched) rest

let component_of g start =
  let n = Undirected.node_count g in
  let seen = Array.make n false in
  let queue = Queue.create () in
  Queue.add start queue;
  seen.(start) <- true;
  let acc = ref [] in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    acc := v :: !acc;
    Undirected.iter_neighbours g v (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          Queue.add w queue
        end)
  done;
  List.sort Int.compare !acc
