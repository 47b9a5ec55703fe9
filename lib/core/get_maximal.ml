module R = Relational
module Bitset = Bcgraph.Bitset

(* One unsupported sub-side row of a member, waiting on the members
   that provide its projection. Closed by the first provider included. *)
type requirement = { owner : int; mutable unmet : bool }

(* Counter-based propagation of the inds over the members [ids] (local
   index = position in [ids]). Each member counts its open requirements
   and is included when the count reaches 0; a member with a row no
   member and no base tuple can support starts at -1 and never gets
   there. Inclusion only ever adds ind support, so this is the least
   fixpoint a rescanning closure reaches, without switching the store's
   world. *)
let propagate store inds ids =
  let db = Tagged_store.db store in
  let base = Tagged_store.base_source store in
  let n = Array.length ids in
  let tx li = db.Bcdb.pending.(ids.(li)) in
  (* Per ind: the members' own sup-side rows projected on [sup_attrs],
     mapped to the members providing them (each member once, newest
     first). *)
  let providers =
    List.map
      (fun (ind : R.Constr.ind) ->
        let tbl = R.Tuple.Tbl.create 16 in
        for li = 0 to n - 1 do
          List.iter
            (fun row ->
              let key = R.Tuple.project row ind.R.Constr.sup_attrs in
              match R.Tuple.Tbl.find_opt tbl key with
              | Some (lj :: _) when lj = li -> ()
              | Some ls -> R.Tuple.Tbl.replace tbl key (li :: ls)
              | None -> R.Tuple.Tbl.replace tbl key [ li ])
            (Pending.rows_for (tx li) ind.R.Constr.sup_rel)
        done;
        (ind, tbl, R.Check.ind_supported base ind))
      inds
  in
  let open_count = Array.make n 0 in
  let waiting = Array.make n [] in
  for li = 0 to n - 1 do
    let includable =
      List.for_all
        (fun ((ind : R.Constr.ind), tbl, base_supported) ->
          List.for_all
            (fun row ->
              match
                R.Tuple.Tbl.find_opt tbl (R.Tuple.project row ind.R.Constr.sub_attrs)
              with
              | Some ls when List.mem li ls -> true
              | _ when base_supported row -> true
              | None -> false
              | Some ls ->
                  let r = { owner = li; unmet = true } in
                  List.iter (fun lj -> waiting.(lj) <- r :: waiting.(lj)) ls;
                  open_count.(li) <- open_count.(li) + 1;
                  true)
            (Pending.rows_for (tx li) ind.R.Constr.sub_rel))
        providers
    in
    if not includable then open_count.(li) <- -1
  done;
  let included = Bitset.create (Tagged_store.tx_count store) in
  let work = Stack.create () in
  Array.iteri (fun li c -> if c = 0 then Stack.push li work) open_count;
  while not (Stack.is_empty work) do
    let lj = Stack.pop work in
    Bitset.add included ids.(lj);
    List.iter
      (fun r ->
        if r.unmet then begin
          r.unmet <- false;
          let c = open_count.(r.owner) - 1 in
          open_count.(r.owner) <- c;
          if c = 0 then Stack.push r.owner work
        end)
      waiting.(lj)
  done;
  included

let run store candidates =
  match Bitset.to_list candidates with
  | [ i ] ->
      (* A singleton may be an isolated invalid node: it is its own world
         iff [R ∪ T_i |= I]. *)
      let world = Bitset.create (Tagged_store.tx_count store) in
      let tx = (Tagged_store.db store).Bcdb.pending.(i) in
      (match R.Check.outcome (Tagged_store.checker store) tx.Pending.rows with
      | R.Check.Satisfied -> Bitset.add world i
      | R.Check.Fd_violated | R.Check.Ind_violated -> ());
      world
  | ids -> (
      match Bcdb.inds (Tagged_store.db store) with
      | [] -> Bitset.copy candidates
      | inds -> propagate store inds (Array.of_list ids))

let run_list store ids =
  run store (Bitset.of_list (Tagged_store.tx_count store) ids)
