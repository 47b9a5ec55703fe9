(* Graph substrate: bitsets, union-find, components, Bron–Kerbosch and
   its helpers (Bitset.max_by, Undirected.degeneracy_order). *)

module G = Bcgraph

let test_bitset_basics () =
  let b = G.Bitset.create 10 in
  Alcotest.(check bool) "empty" true (G.Bitset.is_empty b);
  G.Bitset.add b 3;
  G.Bitset.add b 7;
  G.Bitset.add b 3;
  Alcotest.(check int) "cardinal" 2 (G.Bitset.cardinal b);
  Alcotest.(check (list int)) "to_list" [ 3; 7 ] (G.Bitset.to_list b);
  G.Bitset.remove b 3;
  Alcotest.(check bool) "mem after remove" false (G.Bitset.mem b 3);
  Alcotest.(check (option int)) "choose" (Some 7) (G.Bitset.choose_opt b)

let bitset_ops_prop =
  QCheck.Test.make ~name:"bitset ops agree with list ops" ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_bound 20) (int_bound 30))
        (list_of_size (QCheck.Gen.int_bound 20) (int_bound 30)))
    (fun (xs, ys) ->
      let a = G.Bitset.of_list 31 xs and b = G.Bitset.of_list 31 ys in
      let sx = List.sort_uniq compare xs and sy = List.sort_uniq compare ys in
      let expect_inter = List.filter (fun x -> List.mem x sy) sx in
      let expect_union = List.sort_uniq compare (sx @ sy) in
      let expect_diff = List.filter (fun x -> not (List.mem x sy)) sx in
      G.Bitset.to_list (G.Bitset.inter a b) = expect_inter
      && G.Bitset.to_list (G.Bitset.union a b) = expect_union
      && G.Bitset.to_list (G.Bitset.diff a b) = expect_diff
      && G.Bitset.subset (G.Bitset.inter a b) a
      && G.Bitset.cardinal a = List.length sx)

(* --- word-boundary properties: the whole-word graph primitives against
   bit-by-bit references, at capacities on both sides of the 32-bit word
   boundaries. Comparing with [equal] (word-wise) also pins the
   trailing-zero invariant: a stray bit at or above the capacity would
   make two bitsets with the same members unequal. *)

let boundary_sizes = [ 0; 1; 31; 32; 33; 63; 64; 65 ]

(* A capacity from [boundary_sizes] and a random member list below it. *)
let sized_members =
  QCheck.Gen.(
    oneofl boundary_sizes >>= fun n ->
    map (fun xs -> (n, xs)) (list_size (int_bound 80) (int_bound (max 0 (n - 1)))))
  |> QCheck.Gen.map (fun (n, xs) -> (n, if n = 0 then [] else xs))

let same_bits a b =
  G.Bitset.equal a b
  && G.Bitset.cardinal a = G.Bitset.cardinal b
  && G.Bitset.to_list a = G.Bitset.to_list b

let bitset_resize_prop =
  QCheck.Test.make ~name:"Bitset.resize = bit-by-bit copy" ~count:300
    (QCheck.make
       ~print:(fun ((n, xs), m) ->
         Printf.sprintf "n=%d m=%d [%s]" n m
           (String.concat ";" (List.map string_of_int xs)))
       QCheck.Gen.(pair sized_members (oneofl boundary_sizes)))
    (fun ((n, xs), m) ->
      let b = G.Bitset.of_list n xs in
      same_bits (G.Bitset.resize b m)
        (G.Bitset.of_list m (List.filter (fun x -> x < m) xs)))

(* [mem_any] against [mem] element by element: elements outside the
   capacity (negative, or at and past it — a transaction appended after
   a world was set) count as absent instead of raising. *)
let bitset_mem_any_prop =
  QCheck.Test.make ~name:"Bitset.mem_any = exists mem, out of range absent"
    ~count:300
    (QCheck.make
       QCheck.Gen.(pair sized_members (list_size (int_bound 4) (int_range (-2) 70))))
    (fun ((n, xs), probe) ->
      let b = G.Bitset.of_list n xs in
      G.Bitset.mem_any b (Array.of_list probe)
      = List.exists (fun i -> i >= 0 && i < n && G.Bitset.mem b i) probe)

let bitset_remove_shift_prop =
  QCheck.Test.make ~name:"Bitset.remove_shift = bit-by-bit re-id" ~count:300
    (QCheck.make
       ~print:(fun ((n, xs), j) ->
         Printf.sprintf "n=%d j=%d [%s]" n j
           (String.concat ";" (List.map string_of_int xs)))
       QCheck.Gen.(
         sized_members >>= fun (n, xs) ->
         let n = max n 1 in
         map (fun j -> ((n, xs), j)) (int_bound (n - 1))))
    (fun ((n, xs), j) ->
      let b = G.Bitset.of_list n xs in
      same_bits (G.Bitset.remove_shift b j)
        (G.Bitset.of_list (n - 1)
           (List.filter_map
              (fun x -> if x = j then None else Some (if x > j then x - 1 else x))
              xs)))

(* A random graph on a boundary-sized node set. *)
let boundary_graph =
  QCheck.Gen.(
    oneofl boundary_sizes >>= fun n ->
    if n = 0 then return (0, [])
    else
      map
        (fun es -> (n, es))
        (list_size (int_bound 150) (pair (int_bound (n - 1)) (int_bound (n - 1)))))

let graph_of n edges =
  let g = G.Undirected.create n in
  List.iter (fun (a, b) -> G.Undirected.add_edge g a b) edges;
  g

let same_graph g h =
  G.Undirected.node_count g = G.Undirected.node_count h
  &&
  let ok = ref true in
  for i = 0 to G.Undirected.node_count g - 1 do
    ok :=
      !ok
      && same_bits
           (G.Undirected.neighbours_bitset g i)
           (G.Undirected.neighbours_bitset h i)
  done;
  !ok

let print_graph (n, es) =
  Printf.sprintf "n=%d {%s}" n
    (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) es))

let undirected_extend_prop =
  QCheck.Test.make ~name:"Undirected.extend = bit-by-bit rebuild" ~count:200
    (QCheck.make
       ~print:(fun (g, extra) -> Printf.sprintf "%s +%d" (print_graph g) extra)
       QCheck.Gen.(pair boundary_graph (oneofl [ 0; 1; 2; 31; 33 ])))
    (fun ((n, edges), extra) ->
      same_graph
        (G.Undirected.extend (graph_of n edges) extra)
        (graph_of (n + extra) edges))

let undirected_remove_node_prop =
  QCheck.Test.make ~name:"Undirected.remove_node = bit-by-bit re-id" ~count:200
    (QCheck.make
       ~print:(fun (g, j) -> Printf.sprintf "%s -%d" (print_graph g) j)
       QCheck.Gen.(
         boundary_graph >>= fun (n, es) ->
         let n = max n 1 in
         map (fun j -> ((n, es), j)) (int_bound (n - 1))))
    (fun ((n, edges), j) ->
      let reid x = if x > j then x - 1 else x in
      same_graph
        (G.Undirected.remove_node (graph_of n edges) j)
        (graph_of (n - 1)
           (List.filter_map
              (fun (a, b) -> if a = j || b = j then None else Some (reid a, reid b))
              edges)))

let undirected_of_non_edges_prop =
  QCheck.Test.make ~name:"Undirected.of_non_edges = bit-by-bit build" ~count:200
    (QCheck.make
       ~print:(fun ((n, non), nodes) ->
         Printf.sprintf "%s nodes=[%s]" (print_graph (n, non))
           (String.concat ";" (List.map string_of_int nodes)))
       QCheck.Gen.(
         boundary_graph >>= fun (n, non) ->
         map
           (fun nodes -> ((n, non), if n = 0 then [] else nodes))
           (list_size (int_bound 80) (int_bound (max 0 (n - 1))))))
    (fun ((n, non_edges), nodes) ->
      let member x = List.mem x nodes in
      let non a b = List.mem (a, b) non_edges || List.mem (b, a) non_edges in
      let edges =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b ->
                if a < b && member a && member b && not (non a b) then Some (a, b)
                else None)
              (List.init n Fun.id))
          (List.init n Fun.id)
      in
      same_graph
        (G.Undirected.of_non_edges n ~nodes:(G.Bitset.of_list n nodes) ~non_edges)
        (graph_of n edges))

let undirected_add_edges_prop =
  QCheck.Test.make ~name:"Undirected.add_edges = one add_edge per member"
    ~count:200
    (QCheck.make
       ~print:(fun ((n, es), (i, s)) ->
         Printf.sprintf "%s +%d~[%s]" (print_graph (n, es)) i
           (String.concat ";" (List.map string_of_int s)))
       QCheck.Gen.(
         boundary_graph >>= fun (n, es) ->
         let n = max n 1 in
         map
           (fun (i, s) -> ((n, es), (i, s)))
           (pair (int_bound (n - 1)) (list_size (int_bound 80) (int_bound (n - 1))))))
    (fun ((n, edges), (i, s)) ->
      let g = graph_of n edges in
      G.Undirected.add_edges g i (G.Bitset.of_list n s);
      same_graph g (graph_of n (edges @ List.map (fun j -> (i, j)) s)))

let components_add_node_prop =
  QCheck.Test.make ~name:"Components.add_node = of_graph of the grown graph"
    ~count:200
    (QCheck.make
       ~print:(fun (g, nbrs) ->
         Printf.sprintf "%s new~[%s]" (print_graph g)
           (String.concat ";" (List.map string_of_int nbrs)))
       QCheck.Gen.(
         boundary_graph >>= fun (n, es) ->
         map
           (fun nbrs -> ((n, es), if n = 0 then [] else nbrs))
           (list_size (int_bound 4) (int_bound (max 0 (n - 1))))))
    (fun ((n, edges), nbrs) ->
      let incident = List.map (fun m -> (m, n)) nbrs in
      G.Components.add_node (G.Components.of_graph (graph_of n edges)) n incident
      = G.Components.of_graph (graph_of (n + 1) (edges @ incident)))

let test_union_find () =
  let uf = G.Union_find.create 6 in
  G.Union_find.union uf 0 1;
  G.Union_find.union uf 1 2;
  G.Union_find.union uf 4 5;
  Alcotest.(check bool) "same component" true (G.Union_find.same uf 0 2);
  Alcotest.(check bool) "different" false (G.Union_find.same uf 0 4);
  Alcotest.(check (list (list int)))
    "groups"
    [ [ 0; 1; 2 ]; [ 3 ]; [ 4; 5 ] ]
    (G.Union_find.groups uf)

let test_undirected () =
  let g = G.Undirected.create 5 in
  G.Undirected.add_edge g 0 1;
  G.Undirected.add_edge g 1 2;
  G.Undirected.add_edge g 0 0;
  Alcotest.(check bool) "edge" true (G.Undirected.connected g 0 1);
  Alcotest.(check bool) "symmetric" true (G.Undirected.connected g 1 0);
  Alcotest.(check bool) "self loop ignored" false (G.Undirected.connected g 0 0);
  Alcotest.(check int) "edge count" 2 (G.Undirected.edge_count g);
  Alcotest.(check (list int)) "neighbours" [ 0; 2 ] (G.Undirected.neighbours g 1);
  G.Undirected.remove_edge g 0 1;
  Alcotest.(check bool) "removed" false (G.Undirected.connected g 0 1)

let test_components () =
  let g = G.Undirected.create 6 in
  G.Undirected.add_edge g 0 1;
  G.Undirected.add_edge g 2 3;
  G.Undirected.add_edge g 3 4;
  Alcotest.(check (list (list int)))
    "components"
    [ [ 0; 1 ]; [ 2; 3; 4 ]; [ 5 ] ]
    (G.Components.of_graph g);
  Alcotest.(check (list int)) "bfs component" [ 2; 3; 4 ]
    (G.Components.component_of g 3)

let test_bron_kerbosch_known () =
  (* Classic example: two triangles sharing an edge plus a pendant. *)
  let g = G.Undirected.create 5 in
  List.iter
    (fun (i, j) -> G.Undirected.add_edge g i j)
    [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3); (3, 4) ];
  let cliques = List.sort compare (G.Bron_kerbosch.maximal_cliques g) in
  Alcotest.(check (list (list int)))
    "maximal cliques"
    [ [ 0; 1; 2 ]; [ 1; 2; 3 ]; [ 3; 4 ] ]
    cliques

let test_bron_kerbosch_extremes () =
  let empty = G.Undirected.create 4 in
  Alcotest.(check (list (list int)))
    "edgeless graph: singletons"
    [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ]
    (List.sort compare (G.Bron_kerbosch.maximal_cliques empty));
  let complete = G.Undirected.complement empty in
  Alcotest.(check (list (list int)))
    "complete graph: one clique"
    [ [ 0; 1; 2; 3 ] ]
    (G.Bron_kerbosch.maximal_cliques complete);
  let zero = G.Undirected.create 0 in
  Alcotest.(check int) "empty graph" 0 (G.Bron_kerbosch.count_maximal_cliques zero)

let test_early_stop () =
  let g = G.Undirected.create 8 in
  let seen = ref 0 in
  G.Bron_kerbosch.iter_maximal_cliques g (fun _ ->
      incr seen;
      if !seen >= 3 then `Stop else `Continue);
  Alcotest.(check int) "stopped after three" 3 !seen

(* Reference implementation: a set is a maximal clique iff it is a clique
   and no outside vertex extends it. *)
let brute_cliques g =
  let n = G.Undirected.node_count g in
  let nodes = List.init n Fun.id in
  let subsets =
    List.fold_left
      (fun acc v -> acc @ List.map (fun s -> v :: s) acc)
      [ [] ] nodes
    |> List.map (List.sort compare)
  in
  let is_clique s =
    List.for_all
      (fun i -> List.for_all (fun j -> i = j || G.Undirected.connected g i j) s)
      s
  in
  (* a clique [s] is extended by [v] iff [v] is adjacent to all of [s] *)
  let maximal s =
    is_clique s && s <> []
    && List.for_all
         (fun v ->
           List.mem v s
           || List.exists (fun u -> not (G.Undirected.connected g u v)) s)
         nodes
  in
  List.filter maximal subsets |> List.sort_uniq compare

(* A random graph from a node count and an edge list; out-of-range
   endpoints and self-loops are dropped. *)
let random_graph n edges =
  let g = G.Undirected.create n in
  List.iter
    (fun (i, j) -> if i < n && j < n && i <> j then G.Undirected.add_edge g i j)
    edges;
  g

(* A nearly complete graph: every pair adjacent except a short random
   list of non-edges — the shape of Bitcoin fd graphs, where only double
   spends lack an edge. Node counts up to [max_n] let rows cross 32-bit
   word boundaries. At most 10 non-edges keep the clique count small (a
   matching of m non-edges alone has 2^m maximal cliques). Built bit by
   bit, not through {!G.Undirected.of_non_edges}. *)
let near_complete_arb max_n =
  QCheck.make
    ~print:(fun (n, non) ->
      Printf.sprintf "n=%d without {%s}" n
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) non)))
    QCheck.Gen.(
      int_range 1 max_n >>= fun n ->
      map
        (fun non -> (n, non))
        (list_size (int_bound 10) (pair (int_bound (n - 1)) (int_bound (n - 1)))))

let near_complete n non_edges =
  let g = G.Undirected.complement (G.Undirected.create n) in
  List.iter (fun (i, j) -> G.Undirected.remove_edge g i j) non_edges;
  g

(* The resumable generator must emit the same cliques, in the same
   order, as iter_maximal_cliques — the engine's jobs:1 determinism
   guarantee rests on this. *)
let generator_agrees g =
  let via_iter = ref [] in
  G.Bron_kerbosch.iter_maximal_cliques g (fun c ->
      via_iter := c :: !via_iter;
      `Continue);
  let next = G.Bron_kerbosch.generator g in
  let rec drain acc =
    match next () with Some c -> drain (c :: acc) | None -> acc
  in
  drain [] = !via_iter && next () = None

let generator_matches_iter =
  QCheck.Test.make ~name:"clique generator = iterator, same order" ~count:80
    QCheck.(
      pair (int_range 1 9) (list_of_size (QCheck.Gen.int_bound 24) (pair (int_bound 8) (int_bound 8))))
    (fun (n, edges) -> generator_agrees (random_graph n edges))

let generator_matches_iter_near_complete =
  QCheck.Test.make
    ~name:"clique generator = iterator, same order (near-complete, n <= 80)"
    ~count:60 (near_complete_arb 80)
    (fun (n, non) -> generator_agrees (near_complete n non))

let bk_agrees_brute g =
  List.sort compare (G.Bron_kerbosch.maximal_cliques g) = brute_cliques g

let bk_matches_brute =
  QCheck.Test.make ~name:"Bron–Kerbosch = brute force (n <= 8)" ~count:80
    QCheck.(
      pair (int_range 1 8) (list_of_size (QCheck.Gen.int_bound 20) (pair (int_bound 7) (int_bound 7))))
    (fun (n, edges) -> bk_agrees_brute (random_graph n edges))

let bk_matches_brute_near_complete =
  QCheck.Test.make ~name:"Bron–Kerbosch = brute force (near-complete, n <= 14)"
    ~count:40 (near_complete_arb 14)
    (fun (n, non) -> bk_agrees_brute (near_complete n non))

(* The canonical search tree written out with unbounded pivot scans:
   degeneracy-order roots with R = {v}, P/X = later/earlier neighbours;
   pivot = argmax |P ∩ N(u)| over P then X (smallest node on ties, X
   only on strict improvement); branches over P \ N(pivot) ascending,
   each moving its node from P to X. The generator's bounded scans must
   pick the same pivots, hence emit the same cliques in the same order. *)
let reference_cliques g =
  let n = G.Undirected.node_count g in
  let nb = G.Undirected.neighbours_bitset g in
  let order = G.Undirected.degeneracy_order g in
  let rank = Array.make n 0 in
  Array.iteri (fun i v -> rank.(v) <- i) order;
  let out = ref [] in
  let argmax cand p =
    List.fold_left
      (fun (bu, bs) u ->
        let s = G.Bitset.inter_cardinal (nb u) p in
        if s > bs then (u, s) else (bu, bs))
      (-1, -1) (G.Bitset.to_list cand)
  in
  let rec expand r p x =
    if G.Bitset.is_empty p && G.Bitset.is_empty x then
      out := List.sort compare r :: !out
    else begin
      let bp, sp = argmax p p and bx, sx = argmax x p in
      let pivot = if sx > sp then bx else bp in
      List.iter
        (fun v ->
          expand (v :: r) (G.Bitset.inter p (nb v)) (G.Bitset.inter x (nb v));
          G.Bitset.remove p v;
          G.Bitset.add x v)
        (G.Bitset.to_list (G.Bitset.diff p (nb pivot)))
    end
  in
  Array.iter
    (fun v ->
      let p = G.Bitset.create n and x = G.Bitset.create n in
      G.Bitset.iter
        (fun u -> G.Bitset.add (if rank.(u) > rank.(v) then p else x) u)
        (nb v);
      expand [ v ] p x)
    order;
  List.rev !out

let bk_order_matches_reference =
  QCheck.Test.make ~name:"Bron–Kerbosch order = full-scan reference" ~count:80
    QCheck.(
      pair (int_range 1 12)
        (list_of_size (QCheck.Gen.int_bound 40) (pair (int_bound 11) (int_bound 11))))
    (fun (n, edges) ->
      let g = random_graph n edges in
      G.Bron_kerbosch.maximal_cliques g = reference_cliques g)

let bk_order_matches_reference_near_complete =
  QCheck.Test.make
    ~name:"Bron–Kerbosch order = full-scan reference (near-complete, n <= 80)"
    ~count:60 (near_complete_arb 80)
    (fun (n, non) ->
      let g = near_complete n non in
      G.Bron_kerbosch.maximal_cliques g = reference_cliques g)

(* Dense G(n, p): every pair is an edge with probability [p]. Node
   counts stay at 24 or below — denser graphs on more nodes have too
   many maximal cliques for the reference. Nodes of degree n - 1 or
   n - 2 take the enumerator's sparse pivot score, the rest its full
   popcount. *)
let dense_gnp_arb =
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d with %d edges" n (List.length edges))
    QCheck.Gen.(
      pair (int_range 1 24) (float_range 0.5 0.98) >>= fun (n, p) ->
      let pairs =
        List.concat (List.init n (fun i -> List.init i (fun j -> (j, i))))
      in
      map
        (fun coins ->
          (n, List.filteri (fun k _ -> List.nth coins k < p) pairs))
        (list_repeat (List.length pairs) (float_bound_exclusive 1.0)))

let bk_order_matches_reference_dense =
  QCheck.Test.make
    ~name:"Bron–Kerbosch order = full-scan reference (dense G(n,p), n <= 24)"
    ~count:60 dense_gnp_arb
    (fun (n, edges) ->
      let g = random_graph n edges in
      G.Bron_kerbosch.maximal_cliques g = reference_cliques g)

(* Near-complete graphs up to 300 nodes (rows of up to ten words) with
   at most 8 non-edges, so at most 2^8 maximal cliques: many more
   non-edges on this many nodes make the clique count explode. Half of
   the non-edges touch one of three hub nodes, which then miss more
   neighbours than a row has words and take the full popcount while the
   other nodes take the sparse score. *)
let near_complete_hub_arb =
  QCheck.make
    ~print:(fun (n, non) ->
      Printf.sprintf "n=%d without {%s}" n
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) non)))
    QCheck.Gen.(
      int_range 1 300 >>= fun n ->
      let node = int_bound (n - 1) in
      let endpoint = frequency [ (1, int_bound (min 2 (n - 1))); (1, node) ] in
      map (fun non -> (n, non)) (list_size (int_bound 8) (pair endpoint node)))

let bk_order_matches_reference_near_complete_300 =
  QCheck.Test.make
    ~name:
      "Bron–Kerbosch order = full-scan reference (near-complete, n <= 300, \
       <= 8 non-edges)"
    ~count:25 near_complete_hub_arb
    (fun (n, non) ->
      let g = near_complete n non in
      G.Bron_kerbosch.maximal_cliques g = reference_cliques g)

let induced_preserves_edges =
  QCheck.Test.make ~name:"induced subgraph preserves adjacency" ~count:80
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_bound 15) (pair (int_bound 9) (int_bound 9)))
        (list_of_size (QCheck.Gen.int_bound 6) (int_bound 9)))
    (fun (edges, nodes) ->
      let g = G.Undirected.create 10 in
      List.iter
        (fun (i, j) -> if i <> j then G.Undirected.add_edge g i j)
        edges;
      let nodes = List.sort_uniq compare nodes in
      let sub, back = G.Undirected.induced g nodes in
      let n = G.Undirected.node_count sub in
      let ok = ref (n = List.length nodes) in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b then
            ok :=
              !ok
              && G.Undirected.connected sub a b
                 = G.Undirected.connected g back.(a) back.(b)
        done
      done;
      !ok)

(* --- graph-layer helpers of the clique enumeration ---------------- *)

let graph_arb =
  QCheck.(
    pair (int_range 1 10)
      (list_of_size (QCheck.Gen.int_bound 30) (pair (int_bound 9) (int_bound 9))))

(* --- Bitset.max_by ---------------------------------------------------- *)

(* With a [~bound], the scan stops at the first ascending member whose
   score reaches it; when none does, the result is the full argmax. *)
let max_by_matches_naive =
  QCheck.Test.make ~name:"max_by = naive argmax" ~count:300
    QCheck.(
      quad
        (list_of_size (QCheck.Gen.int_bound 12) (int_bound 19))
        (list_of_size (QCheck.Gen.int_bound 12) (int_bound 19))
        (array_of_size (QCheck.Gen.return 20)
           (list_of_size (QCheck.Gen.int_bound 8) (int_bound 19)))
        (int_range (-1) 10))
    (fun (cand, target, rows_members, bound) ->
      let cand = G.Bitset.of_list 20 cand
      and target = G.Bitset.of_list 20 target in
      let rows = Array.map (G.Bitset.of_list 20) rows_members in
      let score u = G.Bitset.inter_cardinal rows.(u) target in
      let members = G.Bitset.to_list cand in
      let expect =
        match List.find_opt (fun u -> score u >= bound) members with
        | Some u -> (u, score u)
        | None ->
            List.fold_left
              (fun (bu, bs) u -> if score u > bs then (u, score u) else (bu, bs))
              (-1, -1) members
      in
      G.Bitset.max_by ~bound cand score = expect)

let inter_into_matches_inter =
  QCheck.Test.make ~name:"inter_into = inter, in place" ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_bound 40) (int_bound 69))
        (list_of_size (QCheck.Gen.int_bound 40) (int_bound 69)))
    (fun (xs, ys) ->
      let a = G.Bitset.of_list 70 xs and b = G.Bitset.of_list 70 ys in
      let expect = G.Bitset.inter a b in
      G.Bitset.inter_into a b;
      G.Bitset.equal a expect && G.Bitset.to_list b = List.sort_uniq compare ys)

(* --- Undirected.degeneracy_order ------------------------------------ *)

let greedy_min_peel g =
  let n = G.Undirected.node_count g in
  let order = G.Undirected.degeneracy_order g in
  (* a permutation of 0..n-1 *)
  List.sort compare (Array.to_list order) = List.init n Fun.id
  &&
  (* each removed node has minimum remaining degree, smallest id on
     ties, against a naive simulation *)
  let removed = Array.make n false in
  let live_degree v =
    List.length
      (List.filter (fun u -> not removed.(u)) (G.Undirected.neighbours g v))
  in
  Array.for_all
    (fun v ->
      let dv = live_degree v in
      let ok =
        List.for_all
          (fun u ->
            removed.(u) || u = v
            ||
            let du = live_degree u in
            du > dv || (du = dv && u > v))
          (List.init n Fun.id)
      in
      removed.(v) <- true;
      ok)
    order

let degeneracy_is_greedy_min_peel =
  QCheck.Test.make ~name:"degeneracy_order = greedy min-degree peel"
    ~count:100 graph_arb (fun (n, edges) -> greedy_min_peel (random_graph n edges))

let degeneracy_near_complete =
  QCheck.Test.make
    ~name:"degeneracy_order = greedy min-degree peel (near-complete, n <= 80)"
    ~count:60 (near_complete_arb 80)
    (fun (n, non) -> greedy_min_peel (near_complete n non))

let () =
  Alcotest.run "graph"
    [
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          QCheck_alcotest.to_alcotest bitset_ops_prop;
          QCheck_alcotest.to_alcotest bitset_resize_prop;
          QCheck_alcotest.to_alcotest bitset_remove_shift_prop;
          QCheck_alcotest.to_alcotest bitset_mem_any_prop;
        ] );
      ( "union-find",
        [ Alcotest.test_case "groups" `Quick test_union_find ] );
      ( "undirected",
        [
          Alcotest.test_case "edges" `Quick test_undirected;
          Alcotest.test_case "components" `Quick test_components;
          QCheck_alcotest.to_alcotest induced_preserves_edges;
          QCheck_alcotest.to_alcotest undirected_extend_prop;
          QCheck_alcotest.to_alcotest undirected_remove_node_prop;
          QCheck_alcotest.to_alcotest undirected_of_non_edges_prop;
          QCheck_alcotest.to_alcotest undirected_add_edges_prop;
          QCheck_alcotest.to_alcotest components_add_node_prop;
        ] );
      ( "bron-kerbosch",
        [
          Alcotest.test_case "known graph" `Quick test_bron_kerbosch_known;
          Alcotest.test_case "extremes" `Quick test_bron_kerbosch_extremes;
          Alcotest.test_case "early stop" `Quick test_early_stop;
          QCheck_alcotest.to_alcotest bk_matches_brute;
          QCheck_alcotest.to_alcotest bk_matches_brute_near_complete;
          QCheck_alcotest.to_alcotest generator_matches_iter;
          QCheck_alcotest.to_alcotest generator_matches_iter_near_complete;
          QCheck_alcotest.to_alcotest bk_order_matches_reference;
          QCheck_alcotest.to_alcotest bk_order_matches_reference_near_complete;
          QCheck_alcotest.to_alcotest bk_order_matches_reference_dense;
          QCheck_alcotest.to_alcotest bk_order_matches_reference_near_complete_300;
        ] );
      ( "helpers",
        [
          QCheck_alcotest.to_alcotest max_by_matches_naive;
          QCheck_alcotest.to_alcotest inter_into_matches_inter;
          QCheck_alcotest.to_alcotest degeneracy_is_greedy_min_peel;
          QCheck_alcotest.to_alcotest degeneracy_near_complete;
        ] );
    ]
