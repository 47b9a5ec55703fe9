module Tuple = Relational.Tuple

type t = { id : int; label : string; rows : (string * Tuple.t) list }

module Seen = Hashtbl.Make (struct
  type t = string * Tuple.t

  let equal (rel, t) (rel', t') = String.equal rel rel' && Tuple.equal t t'
  let hash (rel, t) = Hashtbl.hash rel + (31 * Tuple.hash_noalloc t)
end)

(* One dedup table per domain, reused by every call. It is reset before
   use (an exception may have left rows in it) and after (to drop the
   rows and any buckets a large transaction grew); [Seen.reset] brings
   it back to its initial size, so a transaction of any size costs what
   a fresh table would. A row is new iff adding it grows the table: one
   hash per row. Without a duplicate the row list is kept as given. *)
let seen_key = Domain.DLS.new_key (fun () -> Seen.create 8)

let make ~id ?label rows =
  if id < 0 then invalid_arg "Pending.make: negative id";
  if rows = [] then invalid_arg "Pending.make: empty transaction";
  let seen = Domain.DLS.get seen_key in
  let fresh row =
    let n = Seen.length seen in
    Seen.replace seen row ();
    Seen.length seen > n
  in
  Seen.reset seen;
  let rows =
    if List.for_all fresh rows then rows
    else begin
      Seen.reset seen;
      List.filter fresh rows
    end
  in
  Seen.reset seen;
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
