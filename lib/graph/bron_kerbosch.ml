(* Degeneracy-rooted Bron–Kerbosch with Tomita pivoting.

   The [generator] walks one canonical search tree:

     - The outer level is the degeneracy order: root [i] explores the
       node [v = order.(i)] with R = {v}, P = N(v) ∩ {later in order},
       X = N(v) ∩ {earlier in order}. Every maximal clique is emitted
       exactly once, inside the subtree of its minimum-rank member, and
       each root's candidate set has width at most the degeneracy.
     - Below the roots, branches follow the Tomita pivot rule: pivot =
       argmax of |P ∩ N(u)| over P then X (ties to the smallest node,
       X wins only on strict improvement), branching set P \ N(pivot)
       in ascending node order.

   Leaves — nodes with both P and X empty — are the maximal cliques,
   emitted in depth-first order.

   Pivot scans run through {!Bitset.max_by} and stop at the first node
   whose score reaches its cap (|P| - 1 in P, |P| in X), which is
   already the smallest argmax. On the nearly complete fd graphs of
   Bitcoin data most nodes hit the cap, but not all: a double-spending
   node misses its rival, so every conflicted node below the first
   capped one is scored again at each level (on a 1785-node sweep
   graph, 19 nodes at each of the first clique's 1,764 levels). A node
   missing at most one word count of neighbours is therefore scored
   sparsely: with miss(u) its non-neighbours other than itself and no
   self-loops,

     |P ∩ N(u)| = |P| - [u ∈ P] - |P ∩ miss(u)|,

   the same integer a full-row popcount gives, in O(|miss(u)|). Each
   node's scorer is chosen on its first score, so a small component
   whose nodes are never scored builds no list. *)

(* How a node's pivot score is computed, chosen on its first score. *)
type scorer =
  | Unscored
  | Sparse of int array  (* non-neighbours other than the node itself *)
  | Full  (* popcount of the adjacency row against P *)

type prep = {
  n : int;
  neigh : Bitset.t array;  (* borrowed adjacency rows, read-only *)
  order : int array;  (* degeneracy order: order.(i) = i-th root node *)
  rank : int array;  (* inverse of order *)
  scorers : scorer array;
  all : Bitset.t Lazy.t;  (* every node; complements a row *)
}

let prep g =
  let n = Undirected.node_count g in
  let neigh = Array.init n (Undirected.neighbours_bitset g) in
  let order = Undirected.degeneracy_order g in
  let rank = Array.make n 0 in
  Array.iteri (fun i v -> rank.(v) <- i) order;
  {
    n;
    neigh;
    order;
    rank;
    scorers = Array.make n Unscored;
    all = lazy (Bitset.full n);
  }

(* Sparse when the node misses at most as many neighbours as a row has
   words: the sparse score then costs no more than the popcount. *)
let classify pr u =
  let row = pr.neigh.(u) in
  if pr.n - 1 - Bitset.cardinal row > (pr.n + 31) / 32 then Full
  else begin
    let miss = ref [] in
    Bitset.iter_diff
      (fun j -> if j <> u then miss := j :: !miss)
      (Lazy.force pr.all) row;
    Sparse (Array.of_list !miss)
  end

(* |P ∩ N(u)|, [np] being |P|. *)
let rec score pr p np u =
  match pr.scorers.(u) with
  | Sparse miss ->
      let s = ref (if Bitset.mem p u then np - 1 else np) in
      for k = 0 to Array.length miss - 1 do
        if Bitset.mem p (Array.unsafe_get miss k) then decr s
      done;
      !s
  | Full -> Bitset.inter_cardinal pr.neigh.(u) p
  | Unscored ->
      pr.scorers.(u) <- classify pr u;
      score pr p np u

(* Root [i]'s P/X split of N(order.(i)) by rank. Fresh bitsets — the
   walkers mutate them as branching advances. *)
let root_px pr v =
  let p = Bitset.create pr.n and x = Bitset.create pr.n in
  let rv = pr.rank.(v) in
  Bitset.iter
    (fun u -> if pr.rank.(u) > rv then Bitset.add p u else Bitset.add x u)
    pr.neigh.(v);
  (p, x)

(* Branching set of a non-leaf node: P \ N(pivot), ascending. Empty
   when P is empty or an X-pivot dominates P (a dead end: no maximal
   clique below). Precondition: P and X not both empty.

   The two pivot scans are bounded: graphs have no self-loops, so a
   member of P scores at most |P| - 1 and a member of X at most |P|,
   and each scan stops at the first member reaching its cap — the
   smallest argmax, the node the full scan would return. *)
let branch_todo pr p x =
  let np = Bitset.cardinal p in
  let score = score pr p np in
  let bp, sp = Bitset.max_by ~bound:(np - 1) p score in
  let bx, sx = Bitset.max_by ~bound:np x score in
  let pivot = if sx > sp then bx else bp in
  let acc = ref [] in
  Bitset.iter_diff (fun j -> acc := j :: !acc) p pr.neigh.(pivot);
  (* !acc is descending; fill back-to-front to get ascending *)
  let len = List.length !acc in
  let todo = Array.make len 0 in
  List.iteri (fun k v -> todo.(len - 1 - k) <- v) !acc;
  todo

(* Sticky interrupt: polled once per branching step, not once per
   yield — on adversarial graphs the search can expand exponentially
   many frames between two maximal cliques, and a deadline must be able
   to cut the enumeration inside that gap. Once it fires the walk is
   dead for good. *)
let sticky = function
  | None -> fun () -> false
  | Some stop ->
      let dead = ref false in
      fun () ->
        !dead
        ||
        if stop () then begin
          dead := true;
          true
        end
        else false

(* ------------------------------------------------------------------ *)
(* Sequential generator                                               *)

type sframe = {
  sr : int list;  (* current clique under construction *)
  sp : Bitset.t;  (* candidates still extending sr; shrinks as we branch *)
  sx : Bitset.t;  (* vertices covered by earlier branches; grows *)
  stodo : int array;
  mutable scur : int;
}

let mk_sframe pr r p x =
  let todo = branch_todo pr p x in
  if Array.length todo = 0 then None
  else Some { sr = r; sp = p; sx = x; stodo = todo; scur = 0 }

let generator ?interrupt g =
  let pr = prep g in
  if pr.n = 0 then fun () -> None
  else begin
    let interrupted = sticky interrupt in
    let stack = ref [] in
    let ri = ref 0 in
    let rec next () =
      if interrupted () then None
      else
        match !stack with
        | f :: rest ->
            if f.scur >= Array.length f.stodo then begin
              stack := rest;
              next ()
            end
            else begin
              let v = f.stodo.(f.scur) in
              f.scur <- f.scur + 1;
              let row = pr.neigh.(v) in
              let p', x' =
                if f.scur = Array.length f.stodo then begin
                  (* The frame's last branch: it never reads its P or X
                     again, so they become the child's. [v] is in
                     neither narrowed set (no self-loops). *)
                  Bitset.inter_into f.sp row;
                  Bitset.inter_into f.sx row;
                  (f.sp, f.sx)
                end
                else begin
                  let p' = Bitset.inter f.sp row
                  and x' = Bitset.inter f.sx row in
                  Bitset.remove f.sp v;
                  Bitset.add f.sx v;
                  (p', x')
                end
              in
              let r' = v :: f.sr in
              if Bitset.is_empty p' && Bitset.is_empty x' then
                Some (List.sort Int.compare r')
              else begin
                (match mk_sframe pr r' p' x' with
                | Some fr -> stack := fr :: !stack
                | None -> ());
                next ()
              end
            end
        | [] ->
            if !ri >= pr.n then None
            else begin
              let i = !ri in
              incr ri;
              let v = pr.order.(i) in
              let p, x = root_px pr v in
              if Bitset.is_empty p && Bitset.is_empty x then Some [ v ]
              else begin
                (match mk_sframe pr [ v ] p x with
                | Some fr -> stack := [ fr ]
                | None -> ());
                next ()
              end
            end
    in
    next
  end

let iter_maximal_cliques g f =
  let next = generator g in
  let rec go () =
    match next () with
    | None -> ()
    | Some clique -> ( match f clique with `Continue -> go () | `Stop -> ())
  in
  go ()

let maximal_cliques g =
  let acc = ref [] in
  iter_maximal_cliques g (fun c ->
      acc := c :: !acc;
      `Continue);
  List.rev !acc

let count_maximal_cliques g =
  let count = ref 0 in
  iter_maximal_cliques g (fun _ ->
      incr count;
      `Continue);
  !count
