module R = Relational

(* The lazily-built solver inputs, grouped so that a staleness rebuild
   ([revalidate]) swaps them together with the store they were computed
   against. *)
type caches = {
  fd_graph : Fd_graph.t Lazy.t;
  ind_base_edges : (int * int) list Lazy.t;
  includable : bool array Lazy.t;
}

type t = {
  db : Bcdb.t;
  mutable store : Tagged_store.t;
  mutable state_gen : int;
      (* R's generation stamp when [store]/[caches] were (re)built;
         mismatch means the state was mutated in place since. *)
  obs : Obs.t ref;
      (* a ref, not a value: lazies must see the recorder active when
         they run, not the one at session creation *)
  mutable caches : caches;
  valid_lock : Mutex.t;  (* guards the store/state_gen/caches swap *)
  plans : (Bcquery.Query.t * Inc_eval.plan) list ref;
      (* compiled-plan cache, guarded by plans_lock *)
  plans_lock : Mutex.t;
  components : (Bcdb.t * Bcquery.Query.t * int list list) list ref;
      (* ind-q-graph component cache, db-guarded, under components_lock *)
  components_lock : Mutex.t;
}

(* Node validity and includability come from one sweep over the fixed
   [R] view, shared by the two lazies: includability is validity plus
   the inds, so the fd work is done once, and the active world is never
   switched. *)
let build_caches obs store =
  let validity = lazy (Tagged_store.validity store) in
  {
    fd_graph =
      lazy
        (Obs.span !obs ~cat:"session" "fd_graph" (fun () ->
             Fd_graph.build store ~node_ok:(fst (Lazy.force validity))));
    ind_base_edges =
      lazy
        (Obs.span !obs ~cat:"session" "ind_base_edges" (fun () ->
             Ind_graph.base_edges store));
    includable =
      lazy
        (Obs.span !obs ~cat:"session" "includable" (fun () ->
             snd (Lazy.force validity)));
  }

let create ?(obs = Obs.null) db =
  let store = Tagged_store.create db in
  let obs = ref obs in
  Tagged_store.set_obs store !obs;
  {
    db;
    store;
    state_gen = R.Database.generation db.Bcdb.state;
    obs;
    caches = build_caches obs store;
    valid_lock = Mutex.create ();
    plans = ref [];
    plans_lock = Mutex.create ();
    components = ref [];
    components_lock = Mutex.create ();
  }

(* In-place churn guard (the [serve] access pattern): the store snapshots
   R at creation, so a [Database.insert] on the session's own database
   between two solves leaves every derived structure stale while the
   physical database value — the old cache guard — is unchanged. The
   generation stamp catches exactly that; on mismatch the store and every
   R-dependent cache are rebuilt. Component
   entries stay keyed by database value; they are cleared too because ΘI
   edges consult R. *)
let revalidate t =
  if R.Database.generation t.db.Bcdb.state <> t.state_gen then begin
    Mutex.lock t.valid_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.valid_lock) @@ fun () ->
    let gen = R.Database.generation t.db.Bcdb.state in
    if gen <> t.state_gen then begin
      let store = Tagged_store.create t.db in
      Tagged_store.set_obs store !(t.obs);
      t.caches <- build_caches t.obs store;
      t.store <- store;
      t.state_gen <- gen;
      Mutex.lock t.components_lock;
      t.components := [];
      Mutex.unlock t.components_lock
    end
  end

let db t = t.db

let store t =
  revalidate t;
  t.store

let obs t = !(t.obs)

let set_obs t obs =
  t.obs := obs;
  Tagged_store.set_obs t.store obs

(* One compiled plan per distinct query text per session: repeated
   solves (and every world of one solve) reuse it. Physical equality is
   the fast path — callers usually pass the same query value; the
   structural fallback catches re-parsed but identical constraints. *)
let plan t q =
  Mutex.lock t.plans_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.plans_lock) @@ fun () ->
  match
    List.find_opt (fun (q', _) -> q' == q || Stdlib.compare q' q = 0) !(t.plans)
  with
  | Some (_, p) -> p
  | None ->
      let p = Inc_eval.plan q in
      t.plans := (q, p) :: !(t.plans);
      p

let fd_graph t =
  revalidate t;
  Lazy.force t.caches.fd_graph

let ind_base_edges t =
  revalidate t;
  Lazy.force t.caches.ind_base_edges

(* Connected components of the ind-q-transaction graph, cached per
   query: the Θq edges are found by hashing pending rows with full
   projections, never through the store's active world, so repeated
   solves of one constraint reuse it. Entries are guarded by the
   database value they were computed against — a dry-run append/undo
   replaces it, and stale entries are pruned on the next insert —
   while in-place state churn is caught by {!revalidate} (ΘI edges
   consult R). *)
let ind_components t q =
  revalidate t;
  let db_now = Tagged_store.db t.store in
  Mutex.lock t.components_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.components_lock) @@ fun () ->
  match
    List.find_opt
      (fun (db', q', _) ->
        db' == db_now && (q' == q || Stdlib.compare q' q = 0))
      !(t.components)
  with
  | Some (_, _, comps) -> comps
  | None ->
      let graph = Ind_graph.build t.store q (Lazy.force t.caches.ind_base_edges) in
      let comps = Bcgraph.Components.of_graph graph in
      let live =
        List.filter (fun (db', _, _) -> db' == db_now) !(t.components)
      in
      t.components := (db_now, q, comps) :: live;
      comps

(* The live layer maintains per-query components itself (union-find merge
   on transaction arrival); this installs its result where the solver's
   delta path will find it, replacing any entry for the same query. *)
let seed_components t q comps =
  revalidate t;
  let db_now = Tagged_store.db t.store in
  Mutex.lock t.components_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.components_lock) @@ fun () ->
  let rest =
    List.filter
      (fun (db', q', _) ->
        db' == db_now && not (q' == q || Stdlib.compare q' q = 0))
      !(t.components)
  in
  t.components := (db_now, q, comps) :: rest

let includable t =
  revalidate t;
  Lazy.force t.caches.includable

let warm t =
  ignore (fd_graph t);
  ignore (ind_base_edges t);
  ignore (includable t)

let extended ?ind_edges t =
  let store = t.store in
  let db' = Tagged_store.db store in
  let id = Tagged_store.tx_count store - 1 in
  if Array.length db'.Bcdb.pending <> Array.length t.db.Bcdb.pending + 1 then
    invalid_arg "Session.extended: store is not one transaction ahead";
  (* Structures the old session never forced are swept afresh, once. *)
  let fresh = build_caches t.obs store in
  let outcome =
    lazy
      (R.Check.outcome (Tagged_store.checker store)
         db'.Bcdb.pending.(id).Pending.rows)
  in
  let fd_graph =
    if Lazy.is_val t.caches.fd_graph then
      Lazy.from_val
        (Fd_graph.extend (Lazy.force t.caches.fd_graph) store
           ~valid:(Lazy.force outcome <> R.Check.Fd_violated))
    else fresh.fd_graph
  in
  let ind_base_edges =
    if Lazy.is_val t.caches.ind_base_edges then
      Lazy.from_val
        (Lazy.force t.caches.ind_base_edges
        @
        match ind_edges with
        | Some edges -> edges
        | None ->
            Ind_graph.edges_for_tx store
              (Bcquery.Theta.of_inds (Bcdb.inds db'))
              id)
    else fresh.ind_base_edges
  in
  let includable =
    if Lazy.is_val t.caches.includable then
      Lazy.from_val
        (Array.append
           (Lazy.force t.caches.includable)
           [| Lazy.force outcome = R.Check.Satisfied |])
    else fresh.includable
  in
  {
    db = db';
    store;
    state_gen = t.state_gen;
    obs = t.obs;
    caches = { fd_graph; ind_base_edges; includable };
    valid_lock = Mutex.create ();
    plans = ref !(t.plans);
    plans_lock = Mutex.create ();
    (* The hypothetical transaction changes the ind-q graph: start
       empty (entries are keyed by the pre-extension database anyway). *)
    components = ref [];
    components_lock = Mutex.create ();
  }

(* The live layer maintains the fd graph, ΘI edges and includability
   itself (lib/core/live.ml); [reseed] lets it hand a new database value
   plus those pre-maintained structures to a fresh session without
   rebuilding them — only the store is reloaded (O(pending) when the
   state is all-segment) — while compiled plans carry over. *)
let reseed t ?fd_graph ?ind_base_edges ?includable db =
  let store = Tagged_store.create db in
  Tagged_store.set_obs store !(t.obs);
  let fresh = build_caches t.obs store in
  let seeded v fallback =
    match v with Some x -> Lazy.from_val x | None -> fallback
  in
  {
    db;
    store;
    state_gen = R.Database.generation db.Bcdb.state;
    obs = t.obs;
    caches =
      {
        fd_graph = seeded fd_graph fresh.fd_graph;
        ind_base_edges = seeded ind_base_edges fresh.ind_base_edges;
        includable = seeded includable fresh.includable;
      };
    valid_lock = Mutex.create ();
    plans = ref !(t.plans);
    plans_lock = Mutex.create ();
    components = ref [];
    components_lock = Mutex.create ();
  }
