module R = Relational
module Q = Bcquery
module Bitset = Bcgraph.Bitset

type case =
  | Fd_conjunctive
  | Ind_conjunctive
  | Fd_aggregate
  | Ind_monotone_aggregate

let case_name = function
  | Fd_conjunctive -> "fd-conjunctive"
  | Ind_conjunctive -> "ind-conjunctive"
  | Fd_aggregate -> "fd-aggregate (minimal support worlds)"
  | Ind_monotone_aggregate -> "ind-monotone-aggregate (unique maximal world)"

let applicable ?(sum_args_nonnegative = true) db q =
  let profile = Bcdb.constraint_profile db in
  let has_ind = List.mem `Ind profile in
  let has_fd = List.mem `Fd profile || List.mem `Key profile in
  let fd_only = not has_ind in
  let ind_only = not has_fd in
  match q with
  | Q.Query.Boolean _ ->
      if fd_only then Some Fd_conjunctive
      else if ind_only then Some Ind_conjunctive
      else None
  | Q.Query.Aggregate a ->
      if not (Q.Cq.is_positive a.Q.Query.body) then None
      else if fd_only then begin
        match (a.Q.Query.agg, a.Q.Query.theta) with
        | (Q.Query.Count | Q.Query.Cntd), Q.Query.Lt -> Some Fd_aggregate
        | Q.Query.Sum, Q.Query.Lt ->
            if sum_args_nonnegative then Some Fd_aggregate else None
        | (Q.Query.Max | Q.Query.Min), _ -> Some Fd_aggregate
        | (Q.Query.Count | Q.Query.Cntd | Q.Query.Sum), (Q.Query.Gt | Q.Query.Eq)
          ->
            None
      end
      else if ind_only then begin
        match (a.Q.Query.agg, a.Q.Query.theta) with
        | (Q.Query.Count | Q.Query.Cntd | Q.Query.Max), Q.Query.Gt ->
            Some Ind_monotone_aggregate
        | Q.Query.Sum, Q.Query.Gt ->
            if sum_args_nonnegative then Some Ind_monotone_aggregate else None
        | Q.Query.Min, Q.Query.Lt -> Some Ind_monotone_aggregate
        | _, (Q.Query.Lt | Q.Query.Gt | Q.Query.Eq) -> None
      end
      else None

(* ------------------------------------------------------------------ *)

type run = {
  session : Session.t;
  mutable worlds : int;
  t0 : float;
}

let outcome run satisfied witness_world witness : Dcsat.outcome =
  (* Tractable solvers always decide: the verdict is never [Unknown]. *)
  let verdict =
    if satisfied then Dcsat.Satisfied
    else
      Dcsat.Violated
        { world = Option.value witness_world ~default:[]; witness }
  in
  {
    Dcsat.satisfied;
    witness_world;
    witness;
    verdict;
    stats =
      {
        Dcsat.worlds_checked = run.worlds;
        cliques_enumerated = 0;
        components_total = 0;
        components_covered = 0;
        precheck_decided = false;
        runtime = Monotime.elapsed ~since:run.t0;
      };
  }

(* The body with negated atoms dropped: candidate assignments must be
   enumerated without filtering on negation against R ∪ T, since a
   negated tuple present in some *excluded* transaction is fine. *)
let positive_part (body : Q.Cq.t) =
  if body.Q.Cq.negated = [] then body
  else
    Q.Cq.make_exn ~positive:body.Q.Cq.positive
      ~comparisons:body.Q.Cq.comparisons ()

let var_index (body : Q.Cq.t) =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace tbl v i) body.Q.Cq.vars;
  tbl

let ground_atom vindex values (a : Q.Atom.t) =
  Array.map
    (function
      | Q.Term.Var v -> values.(Hashtbl.find vindex v)
      | Q.Term.Const c -> c)
    a.Q.Atom.args

(* All minimal transaction-set choices able to supply the assignment's
   support tuples: base-state tuples need no transaction; a pending-only
   tuple needs one of its providing transactions. Returns the product of
   the choices, as sorted dedup'd id lists. *)
let support_choices store support =
  let tuple_options =
    List.filter_map
      (fun (rel, tuple) ->
        let origins = Tagged_store.origins store rel tuple in
        if List.mem (-1) origins then None else Some origins)
      support
  in
  let rec product = function
    | [] -> [ [] ]
    | options :: rest ->
        let tails = product rest in
        List.concat_map (fun o -> List.map (fun tl -> o :: tl) tails) options
  in
  product tuple_options |> List.map (List.sort_uniq Int.compare)
  |> List.sort_uniq compare

let fd_consistent_set session members =
  let fd = Session.fd_graph session in
  let rec pairs = function
    | [] -> true
    | i :: rest ->
        fd.Fd_graph.node_ok.(i)
        && List.for_all
             (fun j -> Bcgraph.Undirected.connected fd.Fd_graph.graph i j)
             rest
        && pairs rest
  in
  pairs members

(* h's negated tuples must be absent from R ∪ S. *)
let negation_avoided store vindex values negated members =
  List.for_all
    (fun atom ->
      let tuple = ground_atom vindex values atom in
      let origins = Tagged_store.origins store atom.Q.Atom.rel tuple in
      (not (List.mem (-1) origins))
      && not (List.exists (fun o -> List.mem o members) origins))
    negated

let solve_fd_conjunctive run body =
  let store = Session.store run.session in
  let vindex = var_index body in
  let qpos = positive_part body in
  let src = Tagged_store.union_source store in
  let found = ref None in
  Q.Eval.iter_matches src Q.Eval.(evaluator (compile qpos)) (fun values support ->
      let candidates = support_choices store support in
      let viable members =
        fd_consistent_set run.session members
        && negation_avoided store vindex values body.Q.Cq.negated members
      in
      match List.find_opt viable candidates with
      | Some members ->
          run.worlds <- run.worlds + 1;
          found :=
            Some
              ( members,
                List.combine body.Q.Cq.vars (Array.to_list values) );
          `Stop
      | None -> `Continue);
  match !found with
  | Some (members, assignment) ->
      outcome run false (Some members) (Some assignment)
  | None -> outcome run true None None

(* The unique maximal world within [allowed] for the two ind-only cases.
   {!Get_maximal} requires a clique of the fd graph; with no fds the
   graph is complete, so any transaction set is one. That is the only
   reason a non-clique [allowed] is valid here, hence the check. *)
let ind_only_maximal run allowed =
  let store = Session.store run.session in
  if Bcdb.fds (Tagged_store.db store) <> [] then
    invalid_arg "Tractable: ind-only case over a database with fds";
  Get_maximal.run store allowed

let global_maximal run =
  let k = Tagged_store.tx_count (Session.store run.session) in
  ind_only_maximal run (Bitset.full k)

(* The source of [world], on a view of the session's store. *)
let world_source run world =
  let view = Tagged_store.view (Session.store run.session) in
  Tagged_store.set_world view world;
  Tagged_store.source view

let solve_ind_conjunctive run body =
  let store = Session.store run.session in
  if body.Q.Cq.negated = [] then begin
    let world = global_maximal run in
    run.worlds <- run.worlds + 1;
    match
      Q.Eval.find_witness (world_source run world)
        Q.Eval.(evaluator (compile body))
    with
    | Some assignment ->
        outcome run false (Some (Bitset.to_list world)) (Some assignment)
    | None -> outcome run true None None
  end
  else begin
    let vindex = var_index body in
    let qpos = positive_part body in
    let k = Tagged_store.tx_count store in
    (* Memoize the maximal allowed world per excluded-transaction set. *)
    let memo = Hashtbl.create 16 in
    let maximal_avoiding excluded =
      match Hashtbl.find_opt memo excluded with
      | Some w -> w
      | None ->
          let allowed = Bitset.full k in
          List.iter (Bitset.remove allowed) excluded;
          let w = ind_only_maximal run allowed in
          run.worlds <- run.worlds + 1;
          Hashtbl.replace memo excluded w;
          w
    in
    let found = ref None in
    let src = Tagged_store.union_source store in
    Q.Eval.iter_matches src Q.Eval.(evaluator (compile qpos)) (fun values support ->
        let negated_ground =
          List.map
            (fun a -> (a.Q.Atom.rel, ground_atom vindex values a))
            body.Q.Cq.negated
        in
        let in_base (rel, tuple) =
          List.mem (-1) (Tagged_store.origins store rel tuple)
        in
        if List.exists in_base negated_ground then `Continue
        else begin
          let excluded =
            List.concat_map
              (fun (rel, tuple) ->
                List.filter (fun o -> o >= 0) (Tagged_store.origins store rel tuple))
              negated_ground
            |> List.sort_uniq Int.compare
          in
          let world = maximal_avoiding excluded in
          let supported (rel, tuple) =
            let origins = Tagged_store.origins store rel tuple in
            List.mem (-1) origins
            || List.exists (fun o -> o >= 0 && Bitset.mem world o) origins
          in
          if List.for_all supported support then begin
            found :=
              Some
                ( Bitset.to_list world,
                  List.combine body.Q.Cq.vars (Array.to_list values) );
            `Stop
          end
          else `Continue
        end);
    match !found with
    | Some (world, assignment) ->
        outcome run false (Some world) (Some assignment)
    | None -> outcome run true None None
  end

let solve_fd_aggregate run (a : Q.Query.aggregate) =
  let store = Session.store run.session in
  let body = Q.Eval.compile a.Q.Query.body in
  (* The per-world evaluation runs inside the enumeration's callback, so
     it needs an evaluator of its own. *)
  let outer = Q.Eval.evaluator body and inner = Q.Eval.evaluator body in
  let tested = Hashtbl.create 64 in
  let found = ref None in
  let src = Tagged_store.union_source store in
  let view = Tagged_store.view store in
  Q.Eval.iter_matches src outer (fun _values support ->
      let candidates = support_choices store support in
      let test members =
        if Hashtbl.mem tested members then false
        else begin
          Hashtbl.replace tested members ();
          fd_consistent_set run.session members
          && begin
            run.worlds <- run.worlds + 1;
            Tagged_store.set_world_list view members;
            Q.Eval.eval_compiled (Tagged_store.source view)
              (Q.Query.Aggregate a) inner
          end
        end
      in
      match List.find_opt test candidates with
      | Some members ->
          found := Some members;
          `Stop
      | None -> `Continue);
  match !found with
  | Some members -> outcome run false (Some members) None
  | None -> outcome run true None None

let solve_ind_monotone_aggregate run q =
  let world = global_maximal run in
  run.worlds <- run.worlds + 1;
  if Q.Eval.eval (world_source run world) q then
    outcome run false (Some (Bitset.to_list world)) None
  else outcome run true None None

(* The live layer's dispatch guard: a tractable-decided query never
   reaches the component machinery, so seeding ind-q components (or
   probing a per-component verdict cache) for it would be pure waste. *)
let decides db q = applicable db q <> None

let solve session q =
  match applicable (Session.db session) q with
  | None -> None
  | Some case ->
      let run = { session; worlds = 0; t0 = Monotime.now () } in
      let result =
        match (case, q) with
        | Fd_conjunctive, Q.Query.Boolean body -> solve_fd_conjunctive run body
        | Ind_conjunctive, Q.Query.Boolean body ->
            solve_ind_conjunctive run body
        | Fd_aggregate, Q.Query.Aggregate a -> solve_fd_aggregate run a
        | Ind_monotone_aggregate, Q.Query.Aggregate _ ->
            solve_ind_monotone_aggregate run q
        | (Fd_conjunctive | Ind_conjunctive), Q.Query.Aggregate _
        | (Fd_aggregate | Ind_monotone_aggregate), Q.Query.Boolean _ ->
            assert false
      in
      Some (result, case)
