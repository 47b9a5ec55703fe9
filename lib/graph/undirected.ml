(* Adjacency is one Bitset row per node. The clique enumerator borrows
   rows directly ({!neighbours_bitset}) and intersects neighbourhoods
   word-at-a-time, so building its per-node tables costs nothing — the
   rows *are* the tables. *)

type t = { n : int; rows : Bitset.t array }

let create n =
  if n < 0 then invalid_arg "Undirected.create: negative size";
  { n; rows = Array.init n (fun _ -> Bitset.create n) }

(* Every row starts as a word copy of the node mask minus the node
   itself, so the rows stay symmetric and self-loop free; each non-edge
   then clears one bit in both of its rows. *)
let of_non_edges n ~nodes ~non_edges =
  if Bitset.capacity nodes <> n then
    invalid_arg "Undirected.of_non_edges: node mask capacity mismatch";
  let rows =
    Array.init n (fun i ->
        if Bitset.mem nodes i then begin
          let r = Bitset.copy nodes in
          Bitset.remove r i;
          r
        end
        else Bitset.create n)
  in
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg "Undirected: node out of range";
      if Bitset.mem nodes i && Bitset.mem nodes j then begin
        Bitset.remove rows.(i) j;
        Bitset.remove rows.(j) i
      end)
    non_edges;
  { n; rows }

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

let add_edges g i s =
  check g i;
  if Bitset.capacity s <> g.n then
    invalid_arg "Undirected.add_edges: capacity mismatch";
  let s = Bitset.copy s in
  Bitset.remove s i;
  g.rows.(i) <- Bitset.union g.rows.(i) s;
  Bitset.iter (fun j -> Bitset.add g.rows.(j) i) s

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

(* Degeneracy order by a min-degree peel: repeatedly remove a node of
   minimum live degree (smallest id on ties). The fd graphs this runs on
   are often nearly complete, where decrementing every live neighbour of
   each removed node costs O(m log n) ~ O(n² log n). So each live node
   keeps a key with [key.(u) - off = live degree], for one offset [off]
   shared by every live node (the number of bumps so far, never needed
   explicitly). A removal either decrements its live neighbours' keys,
   or — when they are more than half of the survivors — bumps [off]
   (every survivor's degree drops by one) and raises the keys of its
   live non-neighbours back. Either way it touches the smaller of the
   two sets, and since every live key carries the same offset, the heap
   pops the same (degree, id) minimum as a plain degree heap. Cost:
   O(n² / 32 + Σ min(nbrs, non-nbrs) · log n). The resulting order
   bounds every node's later-neighbour count by the degeneracy d, which
   is what keeps the clique enumerator's outer level to n subtrees of
   candidate width <= d. *)
let degeneracy_order g =
  let n = g.n in
  let order = Array.make n 0 in
  if n > 0 then begin
    let key = Array.init n (degree g) in
    let alive = Bitset.full n in
    (* Lazy-deletion binary min-heap of (key, node) packed as
       [key * n + node] — one int, so the min is the smallest live
       degree with ties to the smallest node id, exactly the documented
       rule. Every key change pushes a fresh entry; stale entries (node
       removed, or its key since changed) are skipped on pop. Keys stay
       in [0, 2n), and the heap grows on demand. *)
    let heap = ref (Array.make n 0) in
    let hsize = ref 0 in
    let push k =
      if !hsize = Array.length !heap then begin
        let bigger = Array.make (2 * !hsize) 0 in
        Array.blit !heap 0 bigger 0 !hsize;
        heap := bigger
      end;
      let h = !heap in
      let i = ref !hsize in
      incr hsize;
      h.(!i) <- k;
      while
        !i > 0
        &&
        let p = (!i - 1) / 2 in
        h.(p) > h.(!i)
        &&
        let tmp = h.(p) in
        h.(p) <- h.(!i);
        h.(!i) <- tmp;
        i := p;
        true
      do
        ()
      done
    in
    let pop () =
      let h = !heap in
      let top = h.(0) in
      decr hsize;
      h.(0) <- h.(!hsize);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < !hsize && h.(l) < h.(!s) then s := l;
        if r < !hsize && h.(r) < h.(!s) then s := r;
        if !s = !i then continue := false
        else begin
          let tmp = h.(!s) in
          h.(!s) <- h.(!i);
          h.(!i) <- tmp;
          i := !s
        end
      done;
      top
    in
    let set u k =
      key.(u) <- k;
      push ((k * n) + u)
    in
    for v = 0 to n - 1 do
      push ((key.(v) * n) + v)
    done;
    for k = 0 to n - 1 do
      let rec take () =
        let e = pop () in
        let v = e mod n in
        if Bitset.mem alive v && key.(v) = e / n then v else take ()
      in
      let v = take () in
      Bitset.remove alive v;
      order.(k) <- v;
      let nbrs = Bitset.inter g.rows.(v) alive in
      if 2 * Bitset.cardinal nbrs <= n - k - 1 then
        Bitset.iter (fun u -> set u (key.(u) - 1)) nbrs
      else Bitset.iter_diff (fun u -> set u (key.(u) + 1)) alive nbrs
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
