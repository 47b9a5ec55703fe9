module Bitset = Bcgraph.Bitset

(* One open row of a member, waiting on the members that provide it.
   Closed by the first provider included. *)
type requirement = { owner : int; mutable unmet : bool }

(* The local index of [id] in the ascending [ids]. *)
let local ids id =
  let rec go lo hi =
    let mid = (lo + hi) / 2 in
    let m = ids.(mid) in
    if m = id then mid else if m < id then go (mid + 1) hi else go lo (mid - 1)
  in
  go 0 (Array.length ids - 1)

(* Counter propagation over the members [ids] (ascending; local index =
   position). Each member counts its open rows and is included when the
   count reaches 0; an invalid member, or one with an open row no member
   provides, starts at -1 and never gets there. Inclusion only ever adds
   ind support, so this is the least fixpoint a rescanning closure
   reaches, without switching the store's world. *)
let propagate req ~k candidates ids =
  let n = Array.length ids in
  let open_count = Array.make n 0 in
  let waiting = Array.make n [] in
  (* [r] waits on each of [providers] in the clique; whether any is. *)
  let wait r providers =
    let met = ref false in
    for k = 0 to Array.length providers - 1 do
      let p = Requirements.id providers.(k) in
      if Bitset.mem candidates p then begin
        met := true;
        let lp = local ids p in
        waiting.(lp) <- r :: waiting.(lp)
      end
    done;
    !met
  in
  (* One callback for every member: it reads the member from [cur]. *)
  let cur = ref 0 in
  let need providers =
    let li = !cur in
    if open_count.(li) >= 0 then
      open_count.(li) <-
        (if wait { owner = li; unmet = true } providers then open_count.(li) + 1
         else -1)
  in
  for li = 0 to n - 1 do
    if not (Requirements.is_valid req ids.(li)) then open_count.(li) <- -1
    else begin
      cur := li;
      Requirements.iter_needs req ids.(li) need
    end
  done;
  let included = Bitset.create k in
  (* The members whose count reached 0, included in stack order. *)
  let stack = Array.make n 0 and top = ref 0 in
  let push li =
    stack.(!top) <- li;
    incr top
  in
  let release r =
    if r.unmet then begin
      r.unmet <- false;
      let c = open_count.(r.owner) - 1 in
      open_count.(r.owner) <- c;
      if c = 0 then push r.owner
    end
  in
  Array.iteri (fun li c -> if c = 0 then push li) open_count;
  while !top > 0 do
    decr top;
    let lj = stack.(!top) in
    Bitset.add included ids.(lj);
    List.iter release waiting.(lj)
  done;
  included

(* The members of [candidates], ascending. *)
let members candidates =
  let ids = Array.make (Bitset.cardinal candidates) 0 and n = ref 0 in
  Bitset.iter
    (fun i ->
      ids.(!n) <- i;
      incr n)
    candidates;
  ids

let run store candidates =
  match Bcdb.inds (Tagged_store.db store) with
  | [] -> (
      (* The world is the clique, but for an isolated invalid node. *)
      match Bitset.to_list candidates with
      | [ i ] when not (Requirements.is_valid (Tagged_store.requirements store) i) ->
          Bitset.create (Tagged_store.tx_count store)
      | _ -> Bitset.copy candidates)
  | _ ->
      propagate
        (Tagged_store.requirements store)
        ~k:(Tagged_store.tx_count store) candidates (members candidates)

let run_list store ids =
  run store (Bitset.of_list (Tagged_store.tx_count store) ids)
