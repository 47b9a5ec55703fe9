module Tuple = Relational.Tuple

type t = { id : int; label : string; rows : (string * Tuple.t) list }

let make ~id ?label rows =
  if id < 0 then invalid_arg "Pending.make: negative id";
  if rows = [] then invalid_arg "Pending.make: empty transaction";
  let seen = Hashtbl.create 8 in
  let rows =
    List.filter
      (fun (rel, tuple) ->
        let key = (rel, Tuple.hash tuple, tuple) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      rows
  in
  let label = Option.value label ~default:(Printf.sprintf "T%d" id) in
  { id; label; rows }

let reid t id =
  if id < 0 then invalid_arg "Pending.reid: negative id";
  { t with id }

let rows_for t rel =
  List.filter_map
    (fun (r, tuple) -> if String.equal r rel then Some tuple else None)
    t.rows

let size t = List.length t.rows

let pp ppf t =
  Format.fprintf ppf "@[<v 2>%s:@ %a@]" t.label
    (Format.pp_print_list (fun ppf (rel, tuple) ->
         Format.fprintf ppf "%s%a" rel Tuple.pp tuple))
    t.rows
