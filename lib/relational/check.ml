type violation =
  | Fd_violation of Constr.fd * Tuple.t * Tuple.t
  | Ind_violation of Constr.ind * Tuple.t

let pp_violation ppf = function
  | Fd_violation (f, t1, t2) ->
      Format.fprintf ppf "fd violation on %s: %a vs %a" f.Constr.frel Tuple.pp
        t1 Tuple.pp t2
  | Ind_violation (i, t) ->
      Format.fprintf ppf "ind violation: %s tuple %a unsupported in %s"
        i.Constr.sub_rel Tuple.pp t i.Constr.sup_rel

exception Found of violation

let check_fd (src : Source.t) (f : Constr.fd) =
  let seen = Tuple.Tbl.create 256 in
  try
    src.Source.scan f.Constr.frel
    |> Seq.iter (fun t ->
           let lhs = Tuple.project t f.Constr.lhs in
           let rhs = Tuple.project t f.Constr.rhs in
           match Tuple.Tbl.find_opt seen lhs with
           | Some (rhs', t') ->
               if not (Tuple.equal rhs rhs') then
                 raise (Found (Fd_violation (f, t', t)))
           | None -> Tuple.Tbl.replace seen lhs (rhs, t));
    None
  with Found v -> Some v

let check_ind (src : Source.t) (i : Constr.ind) =
  let supported = Tuple.Tbl.create 256 in
  src.Source.scan i.Constr.sup_rel
  |> Seq.iter (fun t ->
         Tuple.Tbl.replace supported (Tuple.project t i.Constr.sup_attrs) ());
  try
    src.Source.scan i.Constr.sub_rel
    |> Seq.iter (fun t ->
           if not (Tuple.Tbl.mem supported (Tuple.project t i.Constr.sub_attrs))
           then raise (Found (Ind_violation (i, t))));
    None
  with Found v -> Some v

let check_one src = function
  | Constr.Fd f -> check_fd src f
  | Constr.Ind i -> check_ind src i

let first_violation src cs = List.find_map (check_one src) cs
let satisfies src cs = Option.is_none (first_violation src cs)
let violations src cs = List.filter_map (check_one src) cs

exception Conflict of Tuple.t
exception Supported

let fd_conflict (src : Source.t) (f : Constr.fd) =
  let probe =
    Source.probe_from src f.Constr.frel ~cols:f.Constr.lhs ~from:f.Constr.lhs
  in
  fun (t : Tuple.t) ->
    let rhs = Tuple.project t f.Constr.rhs in
    try
      probe t (fun t' ->
          if not (Tuple.equal (Tuple.project t' f.Constr.rhs) rhs) then
            raise_notrace (Conflict t'));
      None
    with Conflict t' -> Some t'

let ind_supported (src : Source.t) (i : Constr.ind) =
  let probe =
    Source.probe_from src i.Constr.sup_rel ~cols:i.Constr.sup_attrs
      ~from:i.Constr.sub_attrs
  in
  fun (t : Tuple.t) ->
    try
      probe t (fun _ -> raise_notrace Supported);
      false
    with Supported -> true

let batch_consistent (src : Source.t) cs rows =
  let batch_of rel =
    List.concat_map (fun (name, ts) -> if String.equal name rel then ts else [])
      rows
  in
  let fd_ok (f : Constr.fd) =
    let fresh = batch_of f.Constr.frel in
    fresh = []
    ||
    let seen = Tuple.Tbl.create 16 in
    let conflict = fd_conflict src f in
    List.for_all
      (fun t ->
        if Option.is_some (conflict t) then false
        else
          let lhs = Tuple.project t f.Constr.lhs in
          let rhs = Tuple.project t f.Constr.rhs in
          match Tuple.Tbl.find_opt seen lhs with
          | Some rhs' -> Tuple.equal rhs rhs'
          | None ->
              Tuple.Tbl.replace seen lhs rhs;
              true)
      fresh
  in
  let ind_ok (i : Constr.ind) =
    let fresh_sub = batch_of i.Constr.sub_rel in
    fresh_sub = []
    ||
    let fresh_sup = Tuple.Tbl.create 16 in
    List.iter
      (fun t ->
        Tuple.Tbl.replace fresh_sup (Tuple.project t i.Constr.sup_attrs) ())
      (batch_of i.Constr.sup_rel);
    let supported = ind_supported src i in
    List.for_all
      (fun t ->
        Tuple.Tbl.mem fresh_sup (Tuple.project t i.Constr.sub_attrs)
        || supported t)
      fresh_sub
  in
  List.for_all
    (function Constr.Fd f -> fd_ok f | Constr.Ind i -> ind_ok i)
    cs
