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

(* Every visible tuple of [rel]: the zero-column probe. *)
let iter_all (src : Source.t) rel f = (src.Source.prepare rel [||]).Source.iter [||] f

(* Tuples keyed on their values at [pos], hashed and compared in place. *)
module On (P : sig
  val pos : int array
end) =
Hashtbl.Make (struct
  type t = Tuple.t

  let equal a b = Tuple.agree_on a P.pos b P.pos
  let hash t = Tuple.hash_on t P.pos
end)

let check_fd (src : Source.t) (f : Constr.fd) =
  let rhs = Array.of_list f.Constr.rhs in
  let module Seen = On (struct
    let pos = Array.of_list f.Constr.lhs
  end) in
  let seen = Seen.create 256 in
  try
    iter_all src f.Constr.frel (fun t ->
        match Seen.find seen t with
        | t' ->
            if not (Tuple.agree_on t rhs t' rhs) then
              raise (Found (Fd_violation (f, t', t)))
        | exception Not_found -> Seen.add seen t t);
    None
  with Found v -> Some v

(* A sub row is probed through one scratch tuple holding its values at
   the sup positions; where a sup position repeats, the row's values
   there must agree as well. *)
let check_ind (src : Source.t) (i : Constr.ind) =
  let sub = Array.of_list i.Constr.sub_attrs in
  let sup = Array.of_list i.Constr.sup_attrs in
  let module Sup = On (struct
    let pos = sup
  end) in
  let supported = Sup.create 256 in
  iter_all src i.Constr.sup_rel (fun t -> Sup.replace supported t ());
  let key = Array.make (1 + Array.fold_left max 0 sup) Value.Null in
  try
    iter_all src i.Constr.sub_rel (fun t ->
        for k = 0 to Array.length sup - 1 do
          key.(sup.(k)) <- t.(sub.(k))
        done;
        if not (Tuple.agree_on key sup t sub && Sup.mem supported key) then
          raise (Found (Ind_violation (i, t))));
    None
  with Found v -> Some v

let check_one src = function
  | Constr.Fd f -> check_fd src f
  | Constr.Ind i -> check_ind src i

let first_violation src cs = List.find_map (check_one src) cs
let satisfies src cs = Option.is_none (first_violation src cs)
let violations src cs = List.filter_map (check_one src) cs

exception Conflict
exception Supported

let ind_supported (src : Source.t) (i : Constr.ind) =
  let probe =
    Source.probe_from src i.Constr.sup_rel ~cols:i.Constr.sup_attrs
      ~from:i.Constr.sub_attrs
  in
  let on_match _ = raise_notrace Supported in
  fun (t : Tuple.t) ->
    match probe t on_match with () -> false | exception Supported -> true

(* The batch's own rows, hashed in place on given columns: a scratch
   open-addressing table that lives with the checker, is emptied by
   bumping [gen] and grows only for a batch larger than any before it,
   so one batch costs linear time and, once grown, allocates nothing. *)
type scratch = {
  mutable keys : Tuple.t array;
  mutable stamp : int array;
  mutable gen : int;
}

(* Empty [s], with room for [n] keys at load at most 1/2. *)
let reset s n =
  if Array.length s.keys < 2 * n then begin
    let cap = ref 16 in
    while !cap < 2 * n do
      cap := 2 * !cap
    done;
    s.keys <- Array.make !cap [||];
    s.stamp <- Array.make !cap 0
  end;
  s.gen <- s.gen + 1

(* The slot of the key that agrees at [kpos] with [t] at [pos], or the
   empty slot where such a key goes. *)
let rec probe_slot s kpos (t : Tuple.t) pos i =
  if s.stamp.(i) <> s.gen || Tuple.agree_on s.keys.(i) kpos t pos then i
  else probe_slot s kpos t pos ((i + 1) land (Array.length s.keys - 1))

let slot s kpos t pos =
  probe_slot s kpos t pos (Tuple.hash_on t pos land (Array.length s.keys - 1))

let occupied s i = s.stamp.(i) = s.gen

let fill s i t =
  s.keys.(i) <- t;
  s.stamp.(i) <- s.gen

(* One constraint prepared against the source. [conflicts_base t]: a
   visible tuple agrees with [t] on the lhs and not on the rhs;
   [supported_base t]: a visible sup tuple matches [t]'s sub columns. *)
type fd_check = {
  frel : string;
  lhs : int array;
  rhs : int array;
  conflicts_base : Tuple.t -> bool;
}

type ind_check = {
  sub_rel : string;
  sup_rel : string;
  sub : int array;
  sup : int array;
  supported_base : Tuple.t -> bool;
}

type checker = {
  fds : fd_check array;
  inds : ind_check array;
  scratch : scratch;
}

(* The probe's callback is built once and reads the tuple under test
   from [cur], so a call allocates nothing. *)
let fd_check src (f : Constr.fd) =
  let rhs = Array.of_list f.Constr.rhs in
  let probe =
    Source.probe_from src f.Constr.frel ~cols:f.Constr.lhs ~from:f.Constr.lhs
  in
  let cur = ref [||] in
  let on_match t' =
    if not (Tuple.agree_on !cur rhs t' rhs) then raise_notrace Conflict
  in
  {
    frel = f.Constr.frel;
    lhs = Array.of_list f.Constr.lhs;
    rhs;
    conflicts_base =
      (fun t ->
        cur := t;
        match probe t on_match with () -> false | exception Conflict -> true);
  }

let checker src cs =
  {
    fds = Array.of_list (List.map (fd_check src) (Constr.fds cs));
    inds =
      Array.of_list
        (List.map
           (fun (i : Constr.ind) ->
             {
               sub_rel = i.Constr.sub_rel;
               sup_rel = i.Constr.sup_rel;
               sub = Array.of_list i.Constr.sub_attrs;
               sup = Array.of_list i.Constr.sup_attrs;
               supported_base = ind_supported src i;
             })
           (Constr.inds cs));
    scratch = { keys = [||]; stamp = [||]; gen = 0 };
  }

(* Each row of [c.frel] agrees on the rhs with the first batch row of
   its lhs and meets no conflict in the source. *)
let rec fd_holds s c = function
  | [] -> true
  | (rel, t) :: rest ->
      (if not (String.equal rel c.frel) then true
       else if c.conflicts_base t then false
       else
         let i = slot s c.lhs t c.lhs in
         if occupied s i then Tuple.agree_on t c.rhs s.keys.(i) c.rhs
         else (
           fill s i t;
           true))
      && fd_holds s c rest

let rec add_sups s c = function
  | [] -> ()
  | (rel, t) :: rest ->
      (if String.equal rel c.sup_rel then
         let i = slot s c.sup t c.sup in
         if not (occupied s i) then fill s i t);
      add_sups s c rest

let rec subs_supported s c = function
  | [] -> true
  | (rel, t) :: rest ->
      ((not (String.equal rel c.sub_rel))
      || occupied s (slot s c.sup t c.sub)
      || c.supported_base t)
      && subs_supported s c rest

let rec fds_hold s n fds rows i =
  i >= Array.length fds
  || (reset s n;
      fd_holds s fds.(i) rows)
     && fds_hold s n fds rows (i + 1)

let rec inds_hold s n inds rows i =
  i >= Array.length inds
  || (reset s n;
      add_sups s inds.(i) rows;
      subs_supported s inds.(i) rows)
     && inds_hold s n inds rows (i + 1)

type outcome = Fd_violated | Ind_violated | Satisfied

let outcome c rows =
  let n = List.length rows in
  if not (fds_hold c.scratch n c.fds rows 0) then Fd_violated
  else if not (inds_hold c.scratch n c.inds rows 0) then Ind_violated
  else Satisfied

let sweep c batches =
  let n = Array.length batches in
  let fd_ok = Array.make n false and ok = Array.make n false in
  for i = 0 to n - 1 do
    match outcome c batches.(i) with
    | Fd_violated -> ()
    | Ind_violated -> fd_ok.(i) <- true
    | Satisfied ->
        fd_ok.(i) <- true;
        ok.(i) <- true
  done;
  (fd_ok, ok)
