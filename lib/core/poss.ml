module R = Relational
module Bitset = Bcgraph.Bitset

(* Check that the union of the base state and the given transactions
   satisfies the fds. Since fds are preserved under subsets, this is
   exactly the condition that no intermediate step can violate an fd. *)
let fd_consistent store target =
  let view = Tagged_store.view store in
  Tagged_store.set_world view target;
  let src = Tagged_store.source view in
  List.for_all
    (fun f -> Option.is_none (R.Check.check_fd src f))
    (Bcdb.fds (Tagged_store.db store))

(* Greedy closure under inds only: fds over the final set were already
   checked, and fds hold in every subset of an fd-consistent set. *)
let reachable_subset store target =
  let db = Tagged_store.db store in
  let ind_constraints =
    List.map (fun i -> R.Constr.Ind i) (Bcdb.inds db)
  in
  Closure.run store ~constraints:ind_constraints
    ~candidates:(Bitset.to_list target)

let is_possible_world store target =
  fd_consistent store target
  && Bitset.equal (reachable_subset store target) target

(* BFS over the can-append relation starting from the empty world,
   expressed as a resumable stepper: each call emits the next discovered
   world, expanding one BFS node at a time. The emission order is the
   visit order of the original push-based loop. *)
let generator store =
  let k = Tagged_store.tx_count store in
  if k > 24 then
    invalid_arg "Poss.enumerate: too many pending transactions (max 24)";
  let of_bits bits =
    let set = Bitset.create k in
    for i = 0 to k - 1 do
      if bits land (1 lsl i) <> 0 then Bitset.add set i
    done;
    set
  in
  let db = Tagged_store.db store in
  (* The BFS steps read their own view: the store's world never moves. *)
  let view = Tagged_store.view store in
  let checker = R.Check.checker (Tagged_store.source view) db.Bcdb.constraints in
  let visited = Hashtbl.create 256 in
  let frontier = Queue.create () in
  let to_emit = Queue.create () in
  let visit bits =
    if not (Hashtbl.mem visited bits) then begin
      Hashtbl.replace visited bits ();
      Queue.add bits frontier;
      Queue.add bits to_emit
    end
  in
  visit 0;
  let rec next () =
    if not (Queue.is_empty to_emit) then Some (of_bits (Queue.pop to_emit))
    else if Queue.is_empty frontier then None
    else begin
      let bits = Queue.pop frontier in
      Tagged_store.set_world view (of_bits bits);
      for id = 0 to k - 1 do
        if bits land (1 lsl id) = 0 then begin
          let next_bits = bits lor (1 lsl id) in
          if not (Hashtbl.mem visited next_bits) then begin
            (* One can-append step: the extended instance must satisfy I. *)
            if
              R.Check.outcome checker db.Bcdb.pending.(id).Pending.rows
              = R.Check.Satisfied
            then visit next_bits
          end
        end
      done;
      next ()
    end
  in
  next

let enumerate store f =
  let next = generator store in
  let rec go () =
    match next () with
    | None -> ()
    | Some world -> ( match f world with `Continue -> go () | `Stop -> ())
  in
  go ()

let count store =
  let n = ref 0 in
  enumerate store (fun _ ->
      incr n;
      `Continue);
  !n
