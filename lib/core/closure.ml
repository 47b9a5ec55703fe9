module R = Relational
module Bitset = Bcgraph.Bitset

let run store ~constraints ~candidates =
  let view = Tagged_store.view store in
  let included = Bitset.create (Tagged_store.tx_count store) in
  Tagged_store.set_world view included;
  let checker = R.Check.checker (Tagged_store.source view) constraints in
  let pending = (Tagged_store.db store).Bcdb.pending in
  let remaining = ref candidates in
  let progress = ref true in
  while !progress && !remaining <> [] do
    progress := false;
    remaining :=
      List.filter
        (fun id ->
          if
            R.Check.outcome checker pending.(id).Pending.rows
            = R.Check.Satisfied
          then begin
            Bitset.add included id;
            Tagged_store.set_world view included;
            progress := true;
            false
          end
          else true)
        !remaining
  done;
  included
