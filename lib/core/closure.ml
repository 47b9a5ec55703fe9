module R = Relational
module Bitset = Bcgraph.Bitset

let run store ~constraints ~candidates =
  let saved = Tagged_store.world store in
  let k = Tagged_store.tx_count store in
  let included = Bitset.create k in
  Tagged_store.set_world store included;
  let checker = R.Check.checker (Tagged_store.source store) constraints in
  let pending = (Tagged_store.db store).Bcdb.pending in
  let remaining = ref (Bitset.to_list candidates) in
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
            Tagged_store.set_world store included;
            progress := true;
            false
          end
          else true)
        !remaining
  done;
  Tagged_store.set_world store saved;
  included
