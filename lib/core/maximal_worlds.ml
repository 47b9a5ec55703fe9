module Bitset = Bcgraph.Bitset

let iter session ?restrict f =
  let store = Session.store session in
  let fd = Session.fd_graph session in
  let k = Tagged_store.tx_count store in
  if k = 0 then ignore (f (Bitset.create 0))
  else begin
    let nodes = Option.value restrict ~default:(List.init k Fun.id) in
    let sub, back = Bcgraph.Undirected.induced fd.Fd_graph.graph nodes in
    let seen = Hashtbl.create 16 in
    (* The empty world is contained in every other one, so it is
       maximal only when it is the only world: an invalid node's
       singleton clique, or a clique none of whose members can ever be
       appended, yields it beside the real ones. It is held back and
       listed only if nothing else was. *)
    let empty = ref None in
    Bcgraph.Bron_kerbosch.iter_maximal_cliques sub (fun clique ->
        let members = List.map (fun i -> back.(i)) clique in
        let world = Get_maximal.run_list store members in
        let key = Bitset.to_list world in
        if key = [] then begin
          empty := Some world;
          `Continue
        end
        else if Hashtbl.mem seen key then `Continue
        else begin
          Hashtbl.replace seen key ();
          f world
        end);
    if Hashtbl.length seen = 0 then Option.iter (fun w -> ignore (f w)) !empty
  end

let list session =
  let acc = ref [] in
  iter session (fun w ->
      acc := Bitset.to_list w :: !acc;
      `Continue);
  List.rev !acc

let extremum session eval ~compare =
  let view = Tagged_store.view (Session.store session) in
  let best = ref None in
  iter session (fun world ->
      Tagged_store.set_world view world;
      let value = eval (Tagged_store.source view) in
      (match !best with
      | Some (current, _) when compare value current <= 0 -> ()
      | Some _ | None -> best := Some (value, Bitset.to_list world));
      `Continue);
  !best
