module Value = Relational.Value
module Tuple = Relational.Tuple
module Source = Relational.Source

type arg = V of int | C of Value.t

type catom = { rel : string; cargs : arg array }

type compiled = {
  nvars : int;
  var_names : string array;
  pos : catom array;
  neg : catom array;
  cmps : (arg * Cq.cmp_op * arg) array;
}

let compile (q : Cq.t) =
  let var_names = Array.of_list q.Cq.vars in
  let ids = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace ids v i) var_names;
  let carg = function
    | Term.Var v -> V (Hashtbl.find ids v)
    | Term.Const c -> C c
  in
  let catom (a : Atom.t) =
    (* Bound-column sets are bit masks over an atom's positions. *)
    if Array.length a.Atom.args >= Sys.int_size then
      invalid_arg ("Eval.compile: atom too wide: " ^ a.Atom.rel);
    { rel = a.Atom.rel; cargs = Array.map carg a.Atom.args }
  in
  {
    nvars = Array.length var_names;
    var_names;
    pos = Array.of_list (List.map catom q.Cq.positive);
    neg = Array.of_list (List.map catom q.Cq.negated);
    cmps =
      Array.of_list
        (List.map
           (fun (c : Cq.comparison) -> (carg c.Cq.clhs, c.Cq.op, carg c.Cq.crhs))
           q.Cq.comparisons);
  }

(* An evaluator's prepared probe for one positive atom under one set of
   bound positions, with its scratch key array. *)
type slot = {
  mask : int;  (* bound positions, bit j = position j *)
  cols : int array;  (* the bound positions, ascending *)
  keys : Value.t array;  (* refilled before each probe call *)
  probe : Source.probe;
}

type evaluator = {
  c : compiled;
  mutable on : Source.t option;  (* the source the slots were prepared on *)
  slots : slot list array;  (* per positive atom *)
}

let evaluator c = { c; on = None; slots = Array.make (Array.length c.pos) [] }

(* Slots are prepared against one source; evaluating another (compared
   physically) drops them. *)
let attach ev src =
  match ev.on with
  | Some s when s == src -> ()
  | _ ->
      Array.fill ev.slots 0 (Array.length ev.slots) [];
      ev.on <- Some src

let has_negation c = Array.length c.neg > 0
let positive_relations c = Array.to_list (Array.map (fun a -> a.rel) c.pos)

(* Binding environment: None = unbound. *)

let arg_value env = function
  | C v -> Some v
  | V i -> env.(i)

(* A comparison or negated atom is checked once all of its variables are
   bound; before that it is skipped (it will be re-examined deeper in the
   search, and in the leaf everything is bound). *)

let cmp_ok env (lhs, op, rhs) =
  match (arg_value env lhs, arg_value env rhs) with
  | Some a, Some b -> Cq.cmp op a b
  | _ -> true

let ground_atom env (a : catom) =
  let n = Array.length a.cargs in
  let out = Array.make n Value.Null in
  let rec go i =
    if i >= n then Some out
    else
      match arg_value env a.cargs.(i) with
      | Some v ->
          out.(i) <- v;
          go (i + 1)
      | None -> None
  in
  go 0

let neg_ok (src : Source.t) env (a : catom) =
  match ground_atom env a with
  | Some t -> not (src.Source.mem a.rel t)
  | None -> true

let guards_ok src env c =
  Array.for_all (cmp_ok env) c.cmps && Array.for_all (neg_ok src env) c.neg

(* The slot of positive atom [i] for the positions [env] binds, its
   keys filled with the bound values. *)
let slot ev (src : Source.t) env i =
  let a = ev.c.pos.(i) in
  let n = Array.length a.cargs in
  let mask = ref 0 in
  for j = 0 to n - 1 do
    match a.cargs.(j) with
    | C _ -> mask := !mask lor (1 lsl j)
    | V id -> (
        match env.(id) with
        | Some _ -> mask := !mask lor (1 lsl j)
        | None -> ())
  done;
  let mask = !mask in
  let rec find = function
    | s :: rest -> if s.mask = mask then s else find rest
    | [] ->
        let cols =
          Array.of_list
            (List.filter (fun j -> mask land (1 lsl j) <> 0) (List.init n Fun.id))
        in
        let s =
          {
            mask;
            cols;
            keys = Array.make (Array.length cols) Value.Null;
            probe = src.Source.prepare a.rel cols;
          }
        in
        ev.slots.(i) <- s :: ev.slots.(i);
        s
  in
  let s = find ev.slots.(i) in
  for k = 0 to Array.length s.cols - 1 do
    s.keys.(k) <-
      (match a.cargs.(s.cols.(k)) with
      | C v -> v
      | V id -> ( match env.(id) with Some v -> v | None -> assert false))
  done;
  s

(* Try to match [tuple] against atom [a], extending [env]; returns the list
   of variable ids newly bound (for undo), or None on mismatch. *)
let unify env (a : catom) (tuple : Tuple.t) =
  let n = Array.length a.cargs in
  let rec go i bound =
    if i >= n then Some bound
    else
      match a.cargs.(i) with
      | C v ->
          if Value.equal v tuple.(i) then go (i + 1) bound
          else begin
            List.iter (fun id -> env.(id) <- None) bound;
            None
          end
      | V id -> (
          match env.(id) with
          | Some v ->
              if Value.equal v tuple.(i) then go (i + 1) bound
              else begin
                List.iter (fun id -> env.(id) <- None) bound;
                None
              end
          | None ->
              env.(id) <- Some tuple.(i);
              go (i + 1) (id :: bound))
  in
  go 0 []

exception Stop

(* The backtracking join over [c.pos], resumable from any [depth]: the
   caller may have pre-bound some atoms (marking them in [used] and
   filling their [support] slot) — that is how {!run_delta} seeds the
   search with a Δ-tuple. *)
let search ev (src : Source.t) env used support ~depth on_match =
  let c = ev.c in
  let natoms = Array.length c.pos in
  (* Pick the cheapest remaining atom: smallest estimated match count,
     the [count] of its prepared probe. A zero-cost atom cannot
     be beaten, and — since only a strictly smaller estimate displaces
     the current best — later atoms could at most tie with it, so the
     scan stops there without changing which atom is picked. *)
  let pick () =
    let best = ref (-1) and best_cost = ref max_int in
    let i = ref 0 in
    while !best_cost > 0 && !i < natoms do
      (if not used.(!i) then begin
         let s = slot ev src env !i in
         let cost = s.probe.Source.count s.keys in
         if cost < !best_cost then begin
           best := !i;
           best_cost := cost
         end
       end);
      incr i
    done;
    !best
  in
  let rec go depth =
    if depth >= natoms then begin
      if Array.for_all (cmp_ok env) c.cmps && Array.for_all (neg_ok src env) c.neg
      then begin
        let values =
          Array.map
            (function Some v -> v | None -> assert false)
            env
        in
        match on_match values (Array.to_list support) with
        | `Continue -> ()
        | `Stop -> raise Stop
      end
    end
    else begin
      let i = pick () in
      used.(i) <- true;
      let atom = c.pos.(i) in
      let s = slot ev src env i in
      s.probe.Source.iter s.keys (fun tuple ->
          match unify env atom tuple with
          | None -> ()
          | Some newly_bound ->
              if guards_ok src env c then begin
                support.(i) <- (atom.rel, tuple);
                go (depth + 1)
              end;
              List.iter (fun id -> env.(id) <- None) newly_bound);
      used.(i) <- false
    end
  in
  go depth

let run_compiled (src : Source.t) ev on_match =
  attach ev src;
  let c = ev.c in
  let env = Array.make c.nvars None in
  let natoms = Array.length c.pos in
  let used = Array.make natoms false in
  let support = Array.make natoms ("", ([||] : Tuple.t)) in
  try search ev src env used support ~depth:0 on_match with Stop -> ()

let run (src : Source.t) (q : Cq.t) on_match =
  run_compiled src (evaluator (compile q)) on_match

(* Semi-naive seeding: every new match over W ∪ Δ that did not exist over
   W must map at least one positive atom to a Δ-tuple. Seed the join once
   per (positive atom, Δ-tuple) pair and search only the remaining atoms.
   An assignment mapping several atoms to Δ-tuples is reported once per
   such atom, so callers that count must deduplicate. *)
let run_delta (src : Source.t) ev ~delta on_match =
  attach ev src;
  let c = ev.c in
  let env = Array.make c.nvars None in
  let natoms = Array.length c.pos in
  let used = Array.make natoms false in
  let support = Array.make natoms ("", ([||] : Tuple.t)) in
  try
    for s = 0 to natoms - 1 do
      let atom = c.pos.(s) in
      List.iter
        (fun tuple ->
          match unify env atom tuple with
          | None -> ()
          | Some newly_bound ->
              if guards_ok src env c then begin
                support.(s) <- (atom.rel, tuple);
                used.(s) <- true;
                search ev src env used support ~depth:1 on_match;
                used.(s) <- false
              end;
              List.iter (fun id -> env.(id) <- None) newly_bound)
        (delta atom.rel)
    done
  with Stop -> ()

let iter_matches = run_compiled

let eval_boolean src c =
  let found = ref false in
  run_compiled src c (fun _ _ ->
      found := true;
      `Stop);
  !found

let find_witness src ev =
  let witness = ref None in
  run_compiled src ev (fun values _ ->
      witness := Some values;
      `Stop);
  Option.map
    (fun values ->
      List.combine (Array.to_list ev.c.var_names) (Array.to_list values))
    !witness

let project_compiled (c : compiled) (agg_args : Term.t array) values =
  let index v =
    let n = Array.length c.var_names in
    let rec go i =
      if i >= n then assert false
      else if String.equal c.var_names.(i) v then i
      else go (i + 1)
    in
    go 0
  in
  Array.map
    (function
      | Term.Var v -> values.(index v)
      | Term.Const k -> k)
    agg_args

let aggregate_value src ev (a : Query.aggregate) =
  let c = ev.c in
  match a.Query.agg with
  | Query.Count ->
      let n = ref 0 in
      run_compiled src ev (fun _ _ ->
          incr n;
          `Continue);
      if !n = 0 then None else Some (Value.Int !n)
  | Query.Cntd ->
      let seen = Tuple.Tbl.create 64 in
      run_compiled src ev (fun values _ ->
          Tuple.Tbl.replace seen (project_compiled c a.Query.agg_args values) ();
          `Continue);
      let n = Tuple.Tbl.length seen in
      if n = 0 then None else Some (Value.Int n)
  | Query.Sum ->
      let total = ref Value.zero and any = ref false in
      run_compiled src ev (fun values _ ->
          let projected = project_compiled c a.Query.agg_args values in
          total := Value.add !total projected.(0);
          any := true;
          `Continue);
      if !any then Some !total else None
  | Query.Max | Query.Min ->
      let combine =
        match a.Query.agg with
        | Query.Max -> Value.max_v
        | Query.Min -> Value.min_v
        | Query.Count | Query.Cntd | Query.Sum -> assert false
      in
      let acc = ref None in
      run_compiled src ev (fun values _ ->
          let v = (project_compiled c a.Query.agg_args values).(0) in
          acc := Some (match !acc with None -> v | Some w -> combine v w);
          `Continue);
      !acc

let theta_holds theta value threshold =
  match theta with
  | Query.Lt -> Value.lt value threshold
  | Query.Gt -> Value.lt threshold value
  | Query.Eq -> Value.equal value threshold

let eval_compiled src (q : Query.t) ev =
  match q with
  | Query.Boolean _ -> eval_boolean src ev
  | Query.Aggregate a -> (
      match aggregate_value src ev a with
      | None -> false (* empty bag: comparison is false (footnote 9) *)
      | Some v -> theta_holds a.Query.theta v a.Query.threshold)

let body_of = function
  | Query.Boolean q -> q
  | Query.Aggregate a -> a.Query.body

let eval src q = eval_compiled src q (evaluator (compile (body_of q)))

let count_matches src q =
  let n = ref 0 in
  run src q (fun _ _ ->
      incr n;
      `Continue);
  !n
