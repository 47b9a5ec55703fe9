(* Adjacency is one Bitset row per node. The clique enumerator borrows
   rows directly ({!neighbours_bitset}) and intersects neighbourhoods
   word-at-a-time, so building its per-node tables costs nothing — the
   rows *are* the tables. *)

type t = { n : int; rows : Bitset.t array }

let create n =
  if n < 0 then invalid_arg "Undirected.create: negative size";
  { n; rows = Array.init n (fun _ -> Bitset.create n) }

let node_count g = g.n
let copy g = { g with rows = Array.map Bitset.copy g.rows }

let extend g extra =
  if extra < 0 then invalid_arg "Undirected.extend: negative extra";
  let n = g.n + extra in
  {
    n;
    rows =
      Array.init n (fun i ->
          if i < g.n then Bitset.resize g.rows.(i) n else Bitset.create n);
  }

let check g i =
  if i < 0 || i >= g.n then invalid_arg "Undirected: node out of range"

let remove_node g j =
  check g j;
  {
    n = g.n - 1;
    rows =
      Array.init (g.n - 1) (fun i ->
          Bitset.remove_shift g.rows.(if i < j then i else i + 1) j);
  }

let isolate g i =
  check g i;
  Bitset.iter (fun j -> Bitset.remove g.rows.(j) i) g.rows.(i);
  g.rows.(i) <- Bitset.create g.n

let get g i j = Bitset.mem g.rows.(i) j

let add_edge g i j =
  check g i;
  check g j;
  if i <> j then begin
    Bitset.add g.rows.(i) j;
    Bitset.add g.rows.(j) i
  end

let remove_edge g i j =
  check g i;
  check g j;
  if i <> j then begin
    Bitset.remove g.rows.(i) j;
    Bitset.remove g.rows.(j) i
  end

let connected g i j =
  check g i;
  check g j;
  get g i j

let neighbours_bitset g i =
  check g i;
  g.rows.(i)

let iter_neighbours g i f =
  check g i;
  Bitset.iter f g.rows.(i)

let neighbours g i =
  let acc = ref [] in
  iter_neighbours g i (fun j -> acc := j :: !acc);
  List.rev !acc

let degree g i =
  check g i;
  Bitset.cardinal g.rows.(i)

let edge_count g =
  let total = ref 0 in
  for i = 0 to g.n - 1 do
    total := !total + degree g i
  done;
  !total / 2

let fold_nodes g f acc =
  let acc = ref acc in
  for i = 0 to g.n - 1 do
    acc := f !acc i
  done;
  !acc

let complement g =
  let c = create g.n in
  for i = 0 to g.n - 1 do
    for j = i + 1 to g.n - 1 do
      if not (get g i j) then add_edge c i j
    done
  done;
  c

let induced g nodes =
  let nodes = Array.of_list nodes in
  Array.iter (check g) nodes;
  let n = Array.length nodes in
  let identity =
    n = g.n
    &&
    let rec id i = i = n || (nodes.(i) = i && id (i + 1)) in
    id 0
  in
  if identity then
    (* Whole-graph induction (NaiveDCSat passes every node, each solve):
       the subgraph is the graph itself — copy the rows instead of
       running the O(n²) pair loop below. *)
    (copy g, nodes)
  else begin
    let sub = create n in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        if get g nodes.(a) nodes.(b) then add_edge sub a b
      done
    done;
    (sub, nodes)
  end

(* Degeneracy order via the classic bucket-queue peel: repeatedly remove
   a node of minimum degree in the remaining graph (smallest id on
   ties). Each removal only decrements the degrees of its surviving
   neighbours, so total cost is O(n + m). The resulting order bounds
   every node's later-neighbour count by the degeneracy d, which is what
   keeps the clique enumerator's outer level to n subtrees of candidate
   width <= d. *)
let degeneracy_order g =
  let n = g.n in
  let order = Array.make n 0 in
  if n > 0 then begin
    let deg = Array.init n (degree g) in
    let removed = Array.make n false in
    (* Lazy-deletion binary min-heap of (degree, node) packed as
       [deg * n + node] — one int, so the min is the smallest live
       degree with ties to the smallest node id, exactly the documented
       rule. Stale entries (node removed, or its degree since lowered)
       are skipped on pop. Each edge causes at most one decrement and
       hence one extra push: O((n + m) log n) total. *)
    let cap = n + edge_count g in
    let heap = Array.make cap 0 in
    let hsize = ref 0 in
    let push key =
      let i = ref !hsize in
      incr hsize;
      heap.(!i) <- key;
      while
        !i > 0
        &&
        let p = (!i - 1) / 2 in
        heap.(p) > heap.(!i)
        &&
        let tmp = heap.(p) in
        heap.(p) <- heap.(!i);
        heap.(!i) <- tmp;
        i := p;
        true
      do
        ()
      done
    in
    let pop () =
      let top = heap.(0) in
      decr hsize;
      heap.(0) <- heap.(!hsize);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < !hsize && heap.(l) < heap.(!s) then s := l;
        if r < !hsize && heap.(r) < heap.(!s) then s := r;
        if !s = !i then continue := false
        else begin
          let tmp = heap.(!s) in
          heap.(!s) <- heap.(!i);
          heap.(!i) <- tmp;
          i := !s
        end
      done;
      top
    in
    for v = 0 to n - 1 do
      push ((deg.(v) * n) + v)
    done;
    for k = 0 to n - 1 do
      let rec take () =
        let key = pop () in
        let v = key mod n and d = key / n in
        if removed.(v) || deg.(v) <> d then take () else v
      in
      let v = take () in
      removed.(v) <- true;
      order.(k) <- v;
      Bitset.iter
        (fun u ->
          if not removed.(u) then begin
            deg.(u) <- deg.(u) - 1;
            push ((deg.(u) * n) + u)
          end)
        g.rows.(v)
    done
  end;
  order

let pp ppf g =
  Format.fprintf ppf "@[<v>graph on %d nodes:" g.n;
  for i = 0 to g.n - 1 do
    let ns = neighbours g i in
    if ns <> [] then
      Format.fprintf ppf "@ %d -- %a" i
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        ns
  done;
  Format.fprintf ppf "@]"
