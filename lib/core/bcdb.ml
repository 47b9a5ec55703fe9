module R = Relational

type t = {
  state : R.Database.t;
  constraints : R.Constr.t list;
  pending : Pending.t array;
}

let create ~state ~constraints ~pending ?labels () =
  let label_of =
    match labels with
    | None -> fun _ -> None
    | Some ls ->
        if List.length ls <> List.length pending then
          invalid_arg "Bcdb.create: labels length mismatch";
        let arr = Array.of_list ls in
        fun i -> Some arr.(i)
  in
  if not (R.Check.satisfies (R.Database.source state) constraints) then
    Error "current state violates the integrity constraints"
  else
    let pending =
      Array.of_list
        (List.mapi (fun i rows -> Pending.make ~id:i ?label:(label_of i) rows) pending)
    in
    Ok { state; constraints; pending }

let create_exn ~state ~constraints ~pending ?labels () =
  match create ~state ~constraints ~pending ?labels () with
  | Ok db -> db
  | Error msg -> invalid_arg ("Bcdb.create: " ^ msg)

(* For trusted inputs where re-validating [R |= I] would cost a full
   pass over the state (snapshots written by us, generators correct by
   construction): same shape as [create], no [Check.satisfies]. *)
let create_unchecked ~state ~constraints ~pending ?labels () =
  let label_of =
    match labels with
    | None -> fun _ -> None
    | Some ls ->
        if List.length ls <> List.length pending then
          invalid_arg "Bcdb.create_unchecked: labels length mismatch";
        let arr = Array.of_list ls in
        fun i -> Some arr.(i)
  in
  let pending =
    Array.of_list
      (List.mapi (fun i rows -> Pending.make ~id:i ?label:(label_of i) rows) pending)
  in
  { state; constraints; pending }

let catalog t = R.Database.catalog t.state
let pending_count t = Array.length t.pending
let fds t = R.Constr.fds t.constraints
let inds t = R.Constr.inds t.constraints
let constraint_profile t = R.Constr.classify (catalog t) t.constraints

let has_label t label =
  Array.exists (fun (p : Pending.t) -> String.equal p.Pending.label label) t.pending

(* The first of "T<n+1>", "T<n+2>", ... that no transaction has: a file
   numbers its unlabelled transactions from 1. *)
let fresh_label t =
  let rec from n =
    let label = Printf.sprintf "T%d" n in
    if has_label t label then from (n + 1) else label
  in
  from (Array.length t.pending + 1)

let with_pending t ?label rows =
  let label =
    match label with
    | None -> fresh_label t
    | Some label ->
        if has_label t label then
          invalid_arg (Printf.sprintf "Bcdb.with_pending: label %s is taken" label);
        label
  in
  let id = Array.length t.pending in
  let tx = Pending.make ~id ~label rows in
  { t with pending = Array.append t.pending [| tx |] }

let with_state t state = { t with state }

let remove_pending ?state t id =
  let n = Array.length t.pending in
  if id < 0 || id >= n then invalid_arg "Bcdb.remove_pending: no such transaction";
  {
    t with
    state = Option.value state ~default:t.state;
    pending =
      Array.init (n - 1) (fun i ->
          if i < id then t.pending.(i) else Pending.reid t.pending.(i + 1) i);
  }

let append_to_state t id =
  if id < 0 || id >= Array.length t.pending then Error "no such transaction"
  else
    let rows = t.pending.(id).Pending.rows in
    let checker = R.Check.checker (R.Database.source t.state) t.constraints in
    if R.Check.outcome checker rows <> R.Check.Satisfied then
      Error "appending this transaction would violate the constraints"
    else begin
      let state = R.Database.copy t.state in
      R.Database.insert_all state rows;
      Ok (remove_pending ~state t id)
    end

let pp_summary ppf t =
  Format.fprintf ppf
    "blockchain database: %d state tuples, %d constraints, %d pending txs"
    (R.Database.total_cardinality t.state)
    (List.length t.constraints)
    (Array.length t.pending)
