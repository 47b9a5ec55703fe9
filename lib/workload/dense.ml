module Core = Bccore
module R = Relational
module V = R.Value

let acct = R.Schema.relation "Acct" [ "id"; "val" ]
let catalog = R.Schema.of_list [ acct ]
let acct_row id v = ("Acct", R.Tuple.make [ V.Int id; V.Str v ])

let worlds ~pairs = 1 lsl pairs

let db ~pairs =
  if pairs < 1 || pairs > 30 then invalid_arg "Dense.db: pairs out of range";
  let state = R.Database.create catalog in
  (* Transactions 2j and 2j+1 both claim key id = j with different
     values, so exactly one of each pair fits in any possible world and
     every other combination is compatible: the compatibility graph is
     the cocktail-party graph K_{pairs x 2} with 2^pairs maximal
     cliques, all of them one dense component. *)
  let pending =
    List.concat_map
      (fun j -> [ [ acct_row j "a" ]; [ acct_row j "b" ] ])
      (List.init pairs Fun.id)
  in
  Core.Bcdb.create_exn ~state
    ~constraints:[ R.Constr.key acct [ "id" ] ]
    ~pending ()

let query () =
  (* True over R ∪ T (both values of every pair visible), so the
     pre-check cannot decide; false over every individual world (no id
     carries both values at once), so the solver must visit all 2^pairs
     maximal worlds to conclude SATISFIED. *)
  Bcquery.Parser.parse_exn ~catalog {| q() :- Acct(x, "a"), Acct(x, "b"). |}

(* The grouped instance: [groups] independent copies of the dense
   component, told apart by a group column. *)
let gacct = R.Schema.relation "Acct" [ "g"; "id"; "val" ]
let gcatalog = R.Schema.of_list [ gacct ]
let gacct_row g id v = ("Acct", R.Tuple.make [ V.Int g; V.Int id; V.Str v ])

let grouped_worlds ~groups ~pairs = groups * (1 lsl pairs)

let grouped ~groups ~pairs =
  if groups < 1 || pairs < 1 || pairs > 30 then
    invalid_arg "Dense.grouped: groups or pairs out of range";
  let state = R.Database.create gcatalog in
  (* Within group g, transactions claim key (g, j) in pairs, as in [db];
     the query joins on g, so each group is one ind-q component. *)
  let pending =
    List.concat_map
      (fun g ->
        List.concat_map
          (fun j -> [ [ gacct_row g j "a" ]; [ gacct_row g j "b" ] ])
          (List.init pairs Fun.id))
      (List.init groups Fun.id)
  in
  Core.Bcdb.create_exn ~state
    ~constraints:[ R.Constr.key gacct [ "g"; "id" ] ]
    ~pending ()

let grouped_query () =
  (* True over R ∪ T, false in every world (no key carries both values),
     and connected through g: OptDCSat covers every group and walks all
     2^pairs worlds of each. *)
  Bcquery.Parser.parse_exn ~catalog:gcatalog
    {| q() :- Acct(g, x, "a"), Acct(g, y, "b"), Acct(g, x, "b"). |}
