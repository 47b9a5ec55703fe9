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

(* Binding environment: [vals.(id)] is variable [id]'s value while
   [bound.(id)]. [trail] holds the bound ids in binding order, so a
   search level undoes its unifications by popping back to the mark it
   took before them. *)
type env = {
  vals : Value.t array;
  bound : bool array;
  trail : int array;
  mutable top : int;
}

let make_env n =
  {
    vals = Array.make n Value.Null;
    bound = Array.make n false;
    trail = Array.make n 0;
    top = 0;
  }

let undo_to env mark =
  while env.top > mark do
    env.top <- env.top - 1;
    env.bound.(env.trail.(env.top)) <- false
  done

let is_bound env = function C _ -> true | V i -> env.bound.(i)
let value env = function C v -> v | V i -> env.vals.(i)

(* A comparison or negated atom is checked once all of its variables are
   bound; before that it is skipped (it will be re-examined deeper in the
   search, and in the leaf everything is bound). *)

let cmp_ok env (lhs, op, rhs) =
  (not (is_bound env lhs && is_bound env rhs))
  || Cq.cmp op (value env lhs) (value env rhs)

let rec all_bound env (a : catom) i =
  i >= Array.length a.cargs
  || (is_bound env a.cargs.(i) && all_bound env a (i + 1))

let neg_ok (src : Source.t) env (a : catom) =
  (not (all_bound env a 0))
  || not (src.Source.mem a.rel (Array.map (value env) a.cargs))

let rec cmps_ok env cmps i =
  i >= Array.length cmps || (cmp_ok env cmps.(i) && cmps_ok env cmps (i + 1))

let rec negs_ok src env neg i =
  i >= Array.length neg
  || (neg_ok src env neg.(i) && negs_ok src env neg (i + 1))

let guards_ok src env c = cmps_ok env c.cmps 0 && negs_ok src env c.neg 0

(* The slot of positive atom [i] for the positions [env] binds, its
   keys filled with the bound values. *)
let slot ev (src : Source.t) env i =
  let a = ev.c.pos.(i) in
  let n = Array.length a.cargs in
  let mask = ref 0 in
  for j = 0 to n - 1 do
    if is_bound env a.cargs.(j) then mask := !mask lor (1 lsl j)
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
    s.keys.(k) <- value env a.cargs.(s.cols.(k))
  done;
  s

(* Match [tuple] against atom [a] from position [i] on, binding the
   unbound variables (pushed on the trail). On a mismatch the bindings
   made so far stay on the trail: the caller undoes to its mark. *)
let rec unify env (a : catom) (tuple : Tuple.t) i =
  i >= Array.length a.cargs
  ||
  match a.cargs.(i) with
  | C v -> Value.equal v tuple.(i) && unify env a tuple (i + 1)
  | V id ->
      if env.bound.(id) then
        Value.equal env.vals.(id) tuple.(i) && unify env a tuple (i + 1)
      else begin
        env.vals.(id) <- tuple.(i);
        env.bound.(id) <- true;
        env.trail.(env.top) <- id;
        env.top <- env.top + 1;
        unify env a tuple (i + 1)
      end

exception Stop

(* The matched assignment, reported: a copy of the values and the
   support list, built only here. *)
let report c env support on_match =
  let rec supp i =
    if i >= Array.length c.pos then []
    else (c.pos.(i).rel, support.(i)) :: supp (i + 1)
  in
  match on_match (Array.copy env.vals) (supp 0) with
  | `Continue -> ()
  | `Stop -> raise Stop

(* The backtracking join over [c.pos], resumable from any [depth]: the
   caller may have pre-bound some atoms (marking them in [used] and
   filling their [support] slot) — that is how {!run_delta} seeds the
   search with a Δ-tuple. [depth] is the number of used atoms. *)
let search ev (src : Source.t) env used support ~depth on_match =
  let c = ev.c in
  let natoms = Array.length c.pos in
  (* Pick the cheapest remaining atom: smallest estimated match count,
     the [count] of its prepared probe. A zero-cost atom cannot
     be beaten, and — since only a strictly smaller estimate displaces
     the current best — later atoms could at most tie with it, so the
     scan stops there without changing which atom is picked. The last
     remaining atom is picked without a count: it has no rival. *)
  let pick depth =
    if depth = natoms - 1 then begin
      let i = ref 0 in
      while used.(!i) do
        incr i
      done;
      !i
    end
    else begin
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
    end
  in
  let rec go depth =
    if depth >= natoms then begin
      if guards_ok src env c then report c env support on_match
    end
    else begin
      let i = pick depth in
      used.(i) <- true;
      let atom = c.pos.(i) in
      let s = slot ev src env i in
      s.probe.Source.iter s.keys (fun tuple ->
          let mark = env.top in
          if unify env atom tuple 0 && guards_ok src env c then begin
            support.(i) <- tuple;
            go (depth + 1)
          end;
          undo_to env mark);
      used.(i) <- false
    end
  in
  go depth

let run_compiled (src : Source.t) ev on_match =
  attach ev src;
  let c = ev.c in
  let natoms = Array.length c.pos in
  let env = make_env c.nvars in
  let used = Array.make natoms false in
  let support = Array.make natoms ([||] : Tuple.t) in
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
  let natoms = Array.length c.pos in
  let env = make_env c.nvars in
  let used = Array.make natoms false in
  let support = Array.make natoms ([||] : Tuple.t) in
  try
    for s = 0 to natoms - 1 do
      let atom = c.pos.(s) in
      List.iter
        (fun tuple ->
          if unify env atom tuple 0 && guards_ok src env c then begin
            support.(s) <- tuple;
            used.(s) <- true;
            search ev src env used support ~depth:1 on_match;
            used.(s) <- false
          end;
          undo_to env 0)
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
