module R = Relational

(* The lazily-built solver inputs, grouped so that a staleness rebuild
   ([revalidate]) swaps them together with the store they were computed
   against. Validity, includability and the ΘI relation live in the
   store's requirement relation; these lazies only record when they
   are first forced. *)
type caches = {
  fd_graph : Fd_graph.t Lazy.t;
  includable : bool array Lazy.t;
}

(* Node validity and includability come from the store's one sweep over
   the fixed [R] view: includability is validity plus the inds, so the
   fd work is done once, and the active world is never switched. *)
let build_caches obs store =
  {
    fd_graph =
      lazy
        (Obs.span !obs ~cat:"session" "fd_graph" (fun () ->
             Fd_graph.build store ~node_ok:(fst (Tagged_store.validity store))));
    includable =
      lazy
        (Obs.span !obs ~cat:"session" "includable" (fun () ->
             snd (Tagged_store.validity store)));
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
   entries stay keyed by database value; they are cleared too because
   the requirement relation consults R. *)
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

(* The store's relation with its provider layer built: the ΘI half of
   the ind-q graph. The build is the [ind_base_edges] span. *)
let linked_requirements t =
  let r = Tagged_store.requirements t.store in
  if not (Requirements.linked r) then
    Obs.span !(t.obs) ~cat:"session" "ind_base_edges" (fun () ->
        Requirements.link r);
  r

let requirements t =
  revalidate t;
  linked_requirements t

let ind_base_edges t = Requirements.edges (requirements t)

(* Connected components of the ind-q-transaction graph, cached per
   query: the Θq links are found by bucketing pending rows in place,
   never through the store's active world, so repeated solves of one
   constraint reuse it. Entries are guarded by the database value they
   were computed against — a dry-run append/undo replaces it, and stale
   entries are pruned on the next insert — while in-place state churn
   is caught by {!revalidate} (the relation consults R). *)
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
      let comps = Ind_graph.components (linked_requirements t) db_now q in
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
  ignore (requirements t);
  ignore (includable t)

let extended t =
  let store = t.store in
  let db' = Tagged_store.db store in
  let id = Tagged_store.tx_count store - 1 in
  if Array.length db'.Bcdb.pending <> Array.length t.db.Bcdb.pending + 1 then
    invalid_arg "Session.extended: store is not one transaction ahead";
  (* Structures the old session never forced are built afresh, once;
     the store's relation, when built, already holds the new
     transaction. *)
  let fresh = build_caches t.obs store in
  let fd_graph =
    if Lazy.is_val t.caches.fd_graph then
      Lazy.from_val
        (Fd_graph.extend (Lazy.force t.caches.fd_graph) store
           ~valid:(Requirements.is_valid (Tagged_store.requirements store) id))
    else fresh.fd_graph
  in
  {
    db = db';
    store;
    state_gen = t.state_gen;
    obs = t.obs;
    caches = { fresh with fd_graph };
    valid_lock = Mutex.create ();
    plans = ref !(t.plans);
    plans_lock = Mutex.create ();
    (* The hypothetical transaction changes the ind-q graph: start
       empty (entries are keyed by the pre-extension database anyway). *)
    components = ref [];
    components_lock = Mutex.create ();
  }

(* The live layer maintains the fd graph and the requirement relation
   itself (lib/core/live.ml); [reseed] lets it hand a new database value
   plus those pre-maintained structures to a fresh session without
   rebuilding them — only the store is reloaded (O(pending) when the
   state is all-segment) — while compiled plans carry over. *)
let reseed t ?fd_graph ?requirements db =
  let store = Tagged_store.create db in
  Tagged_store.set_obs store !(t.obs);
  Option.iter (Tagged_store.set_requirements store) requirements;
  let fresh = build_caches t.obs store in
  {
    db;
    store;
    state_gen = R.Database.generation db.Bcdb.state;
    obs = t.obs;
    caches =
      {
        fresh with
        fd_graph =
          (match fd_graph with Some g -> Lazy.from_val g | None -> fresh.fd_graph);
      };
    valid_lock = Mutex.create ();
    plans = ref !(t.plans);
    plans_lock = Mutex.create ();
    components = ref [];
    components_lock = Mutex.create ();
  }
