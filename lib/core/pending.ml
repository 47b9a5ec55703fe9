module Tuple = Relational.Tuple

type t = { id : int; label : string; rows : (string * Tuple.t) list }

module Seen = Hashtbl.Make (struct
  type t = string * Tuple.t

  let equal (rel, t) (rel', t') = String.equal rel rel' && Tuple.equal t t'
  let hash (rel, t) = Hashtbl.hash rel + (31 * Tuple.hash_noalloc t)
end)

let make ~id ?label rows =
  if id < 0 then invalid_arg "Pending.make: negative id";
  if rows = [] then invalid_arg "Pending.make: empty transaction";
  let seen = Seen.create 8 in
  let rows =
    List.filter
      (fun row ->
        if Seen.mem seen row then false
        else begin
          Seen.add seen row ();
          true
        end)
      rows
  in
  let label = match label with Some l -> l | None -> Printf.sprintf "T%d" id in
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
