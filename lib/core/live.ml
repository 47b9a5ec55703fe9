module R = Relational
module Q = Bcquery

(* --- per-(query, component) verdict cache -------------------------- *)

(* Cache entries unreferenced for this many cache-eligible checks of
   their query are pruned — wide enough that an add-then-evict returning
   the mempool to a recent partition still hits. *)
let keep_window = 8

(* A component's content signature: see [comp_signature]. *)
type signature = { lo : int64; hi : int64; epoch : int }

type tracked = {
  t_query : Q.Query.t;
  t_qthetas : Q.Theta.t list;
      (* Θq — derived from the query text alone: computed once. The ΘI
         half of Θ is shared by every tracked query and maintained as
         [ind_base], so each query only probes its own Θq. *)
  mutable t_comps : int list list;
  mutable t_sigs : (int list list * int * (int list * signature) array) option;
      (* [t_comps] (physically) and the Live epoch the array was signed
         at: each component's members and signature, by position in
         [t_comps]. Stale once an event replaces the partition or bumps
         the epoch; re-signed on the next check. *)
  t_sat : (signature, int) Hashtbl.t;
      (* signature → check stamp of the last hit/solve; presence means
         the component's verdict is Satisfied at that content. Survives
         id re-packing: a Satisfied verdict names no ids. *)
  t_viol : (signature * int list, int * Dcsat.comp_verdict) Hashtbl.t;
      (* signature + member ids → (stamp, violated verdict with
         witness). The world and witness name transaction ids AND are
         canonical only relative to the whole database, so this table
         is emptied on every mutation event; between events
         (back-to-back checks of an unchanged mempool) a violating
         component replays its witness verbatim. Unlike [t_sat], keys
         embed the member ids: two {e twin} components with identical
         content share a signature, and replaying one twin's verdict
         for the other would report the wrong ids. *)
  mutable t_checks : int;
}

type cache_stats = {
  cache_hits : int;
  cache_misses : int;
  cache_dirty : int;
  cache_checks : int;
  cache_entries : int;
}

type t = {
  mutable db : Bcdb.t;
  mutable session : Session.t;
  mutable fd : Fd_graph.t;
  mutable ind_base : (int * int) list;
  mutable includable : bool array;
  mutable tracked : tracked list;
  mutable digests : string array;
      (* per pending transaction: content digest of its rows, computed
         once at arrival and spliced under removals — never recomputed,
         so one transaction's digest is stable across its lifetime. *)
  mutable epoch : int;
      (* Live's own monotone stamp of the confirmed state R, bumped on
         every confirm/append_state/reorg. Deliberately not
         [Database.generation]: that counts tail rows and resets when
         compaction empties the tails, so it cannot key a cache. *)
  mutable hits : int;
  mutable misses : int;
  mutable dirty : int;
  mutable checks : int;
}

(* Content digest of one pending transaction: its rows, sorted, so two
   row orderings of the same content digest equally. Two physically
   distinct but content-equal transactions may still digest differently
   (Marshal sharing); that only costs a spurious miss, never soundness. *)
let tx_digest tx =
  Digest.string (Marshal.to_string (List.sort compare tx.Pending.rows) [])

let all_digests pending = Array.map tx_digest pending

(* Order-independent content signature of one component: the two 64-bit
   halves of its members' digests, combined by wrapping addition —
   addition is commutative (ids shift under dense re-packing, content
   does not) and multiset-homomorphic (unlike xor, two content-equal
   members do not cancel) — plus the state epoch. Equal signature ⇒
   equal member-row multiset and equal R ⇒ equal per-component verdict
   (the factorization argument of Proposition 2: a component's verdict
   depends on nothing else). Computed once per partition and epoch, on
   the first check after an event ([signatures]), not per check. *)
let comp_signature t members =
  let a = ref 0L and b = ref 0L in
  List.iter
    (fun i ->
      let d = t.digests.(i) in
      a := Int64.add !a (String.get_int64_le d 0);
      b := Int64.add !b (String.get_int64_le d 8))
    members;
  { lo = !a; hi = !b; epoch = t.epoch }

(* Re-encode every relation of [state] into all-segment form (tails
   empty). [to_segment] is zero-cost for relations already in that form,
   so repeated compaction only pays for relations that actually grew.
   All-segment states make [Tagged_store.create] O(pending): the store
   adopts the segments as-is instead of re-encoding the whole state. *)
let compact state =
  let catalog = R.Database.catalog state in
  R.Database.of_segments catalog
    (List.map
       (fun r -> (r.R.Schema.name, R.Database.to_segment state r.R.Schema.name))
       (R.Schema.relations catalog))

(* [state] plus extra rows, compacted. Duplicates of existing state rows
   are dropped (relations are sets). *)
let compact_with state rows =
  let catalog = R.Database.catalog state in
  let tmp =
    R.Database.of_segments catalog
      (List.map
         (fun r -> (r.R.Schema.name, R.Database.to_segment state r.R.Schema.name))
         (R.Schema.relations catalog))
  in
  R.Database.insert_all tmp rows;
  compact tmp

let rebuild_db state db pending =
  Bcdb.create_unchecked ~state ~constraints:db.Bcdb.constraints
    ~pending:(List.map (fun tx -> tx.Pending.rows) pending)
    ~labels:(List.map (fun tx -> tx.Pending.label) pending)
    ()

let create ?(obs = Obs.null) db =
  let state = compact db.Bcdb.state in
  let db = rebuild_db state db (Array.to_list db.Bcdb.pending) in
  let session = Session.create ~obs db in
  Session.warm session;
  {
    db;
    session;
    fd = Session.fd_graph session;
    ind_base = Session.ind_base_edges session;
    includable = Session.includable session;
    tracked = [];
    digests = all_digests db.Bcdb.pending;
    epoch = 0;
    hits = 0;
    misses = 0;
    dirty = 0;
    checks = 0;
  }

let db t = t.db
let session t = t.session
let fd_graph t = t.fd
let ind_base_edges t = t.ind_base
let includable t = t.includable
let pending_count t = Array.length t.db.Bcdb.pending

let cache_stats t =
  {
    cache_hits = t.hits;
    cache_misses = t.misses;
    cache_dirty = t.dirty;
    cache_checks = t.checks;
    cache_entries =
      List.fold_left
        (fun acc tr -> acc + Hashtbl.length tr.t_sat + Hashtbl.length tr.t_viol)
        0 t.tracked;
  }

let find t label =
  let n = Array.length t.db.Bcdb.pending in
  let rec go i =
    if i >= n then None
    else if String.equal t.db.Bcdb.pending.(i).Pending.label label then Some i
    else go (i + 1)
  in
  go 0

let same_query q' q = q' == q || Stdlib.compare q' q = 0

let grouped_rows tx =
  List.map (fun rel -> (rel, Pending.rows_for tx rel)) (Pending.relations tx)

(* Drop edges incident to [id] and re-pack ids above it — the edge-set
   mirror of [Bcdb.create_unchecked]'s dense re-identification. *)
let remap_edges id edges =
  List.filter_map
    (fun (a, b) ->
      if a = id || b = id then None
      else
        let f x = if x > id then x - 1 else x in
        Some (f a, f b))
    edges

let splice arr id =
  Array.init
    (Array.length arr - 1)
    (fun i -> if i < id then arr.(i) else arr.(i + 1))

let span t name f = Obs.span (Session.obs t.session) ~cat:"live" name f

(* --- tx add ------------------------------------------------------- *)

(* Everything that can reject an arrival, checked before any structure
   (the store first of all) is touched: an add is all-or-nothing. *)
let admissible t label rows =
  let catalog = Bcdb.catalog t.db in
  if Option.is_some (find t label) then
    Error (Printf.sprintf "add: transaction %S is already pending" label)
  else if rows = [] then Error "add: no rows"
  else
    match
      List.find_opt
        (fun (rel, tuple) ->
          match R.Schema.find_opt catalog rel with
          | None -> true
          | Some schema -> R.Schema.arity schema <> Array.length tuple)
        rows
    with
    | Some (rel, _) -> Error (Printf.sprintf "add: bad row for relation %s" rel)
    | None -> Ok ()

let try_add t ?label rows =
  let id = Array.length t.db.Bcdb.pending in
  let label = Option.value label ~default:(Printf.sprintf "T%d" id) in
  match admissible t label rows with
  | Error _ as e -> e
  | Ok () ->
      span t "add" @@ fun () ->
      let db' = Bcdb.with_pending t.db ~label rows in
      let store = Session.store t.session in
      (* A permanent extension: the journal is deliberately dropped — the
         arrival is never rolled back (an eviction re-packs instead). *)
      ignore (Tagged_store.append_tx store db' : Tagged_store.journal);
      let fd = span t "fd" (fun () -> Fd_graph.extend t.fd store) in
      (* The new transaction's ΘI edges, probed once and shared by the
         session's ΘI edge set and every tracked query's merge. *)
      let ind_new =
        span t "ind_edges" (fun () ->
            Ind_graph.edges_for_tx store (Q.Theta.of_inds (Bcdb.inds db')) id)
      in
      let session' = Session.extended ~fd_graph:fd ~ind_edges:ind_new t.session in
      t.db <- db';
      t.session <- session';
      t.fd <- fd;
      t.ind_base <- Session.ind_base_edges session';
      t.includable <- Session.includable session';
      t.digests <- Array.append t.digests [| tx_digest db'.Bcdb.pending.(id) |];
      (* Θ edges only ever appear on insert, so each tracked query's
         component partition absorbs the new node by merging just the
         parts its incident Θ = ΘI ∪ Θq edges reach. Only the (possibly
         merged) component containing the new node changes content, so
         an add dirties exactly that one signature. *)
      span t "components" (fun () ->
          List.iter
            (fun tr ->
              let q_edges =
                match tr.t_qthetas with
                | [] -> []
                | thetas -> Ind_graph.edges_for_tx store thetas id
              in
              let comps' =
                Bcgraph.Components.add_node tr.t_comps id (ind_new @ q_edges)
              in
              Session.seed_components session' tr.t_query comps';
              tr.t_comps <- comps';
              (* Violated verdicts never survive a mutation, even of other
                 components: a witness is canonical only relative to the
                 whole database (plan choice and row order are global),
                 so replaying one across any change would break
                 bit-identity with a fresh solve. Satisfied verdicts
                 carry no witness and stay. *)
              Hashtbl.reset tr.t_viol)
            t.tracked);
      Ok ()

let add t ?label rows =
  match try_add t ?label rows with Ok () -> () | Error msg -> invalid_arg msg

(* --- removal events ------------------------------------------------ *)

(* Scoped component rebuild after a removal: every part not containing
   [id] survives re-id'd — its content, hence its verdict-cache
   signature, is untouched — and only the part that lost the node is
   re-split, by bucketing its survivors' rows on the Θ projections
   ({!Ind_graph.links}: linear in their rows, no index probes). A
   removal dirties exactly the component it leaves. *)
let retrack_after_removal t id =
  let ind_thetas = Q.Theta.of_inds (Bcdb.inds t.db) in
  List.iter
    (fun tr ->
      let rest, survivors = Bcgraph.Components.remove_node tr.t_comps id in
      let parts =
        match survivors with
        | [] -> []
        | _ ->
            Bcgraph.Components.split_members survivors
              (Ind_graph.links t.db (ind_thetas @ tr.t_qthetas) survivors)
      in
      let comps' = Bcgraph.Components.merge rest parts in
      Session.seed_components t.session tr.t_query comps';
      tr.t_comps <- comps';
      (* Ids re-packed (and the database mutated): cached violated
         verdicts name stale ids and a witness canonical for the old
         database. The satisfied table survives — its verdicts name no
         ids and its signatures are content-based. *)
      Hashtbl.reset tr.t_viol)
    t.tracked

(* Node validity and includability against a {e grown} state: one
   indexed batch check per survivor, through the plain database source
   (the state is all-segment, so lookups hit segment indexes). Nodes
   that turned invalid are isolated in [fd]; validity is never
   regained, so no other edge changes. *)
let install_after_state_change t db' ~fd ~ind_base =
  let src = R.Database.source db'.Bcdb.state in
  let fd =
    span t "fd" (fun () ->
        let fd_constraints = List.map (fun f -> R.Constr.Fd f) (Bcdb.fds db') in
        Fd_graph.invalidate fd
          ~node_ok:
            (Array.map
               (fun tx ->
                 R.Check.batch_consistent src fd_constraints (grouped_rows tx))
               db'.Bcdb.pending))
  in
  let includable =
    Array.map
      (fun tx ->
        R.Check.batch_consistent src db'.Bcdb.constraints (grouped_rows tx))
      db'.Bcdb.pending
  in
  let session' =
    span t "store" (fun () ->
        Session.reseed t.session ~fd_graph:fd ~ind_base_edges:ind_base
          ~includable db')
  in
  t.db <- db';
  t.session <- session';
  t.fd <- fd;
  t.ind_base <- ind_base;
  t.includable <- includable

let evict t label =
  span t "evict" @@ fun () ->
  match find t label with
  | None -> Error (Printf.sprintf "evict: no pending transaction %S" label)
  | Some id ->
      (* R is untouched: validity, surviving conflicts, ΘI edges and
         includability all carry over — only ids re-pack. *)
      let fd = span t "fd" (fun () -> Fd_graph.remove t.fd id) in
      let ind_base = span t "ind_edges" (fun () -> remap_edges id t.ind_base) in
      let includable = splice t.includable id in
      let db', session' =
        span t "store" (fun () ->
            let db' = Bcdb.remove_pending t.db id in
            ( db',
              Session.reseed t.session ~fd_graph:fd ~ind_base_edges:ind_base
                ~includable db' ))
      in
      t.db <- db';
      t.session <- session';
      t.fd <- fd;
      t.ind_base <- ind_base;
      t.includable <- includable;
      t.digests <- splice t.digests id;
      (* Removal can split only the component it leaves: re-split that
         one, keep every other part (and its cached verdict). *)
      span t "components" (fun () -> retrack_after_removal t id);
      Ok ()

let confirm t label =
  span t "confirm" @@ fun () ->
  match find t label with
  | None -> Error (Printf.sprintf "confirm: no pending transaction %S" label)
  | Some id ->
      let db' =
        span t "store" (fun () ->
            let rows = t.db.Bcdb.pending.(id).Pending.rows in
            Bcdb.remove_pending ~state:(compact_with t.db.Bcdb.state rows) t.db id)
      in
      (* Pairwise conflicts and Θ edges depend only on pending rows:
         re-id them. Validity/includability consult R: recompute. *)
      let fd = span t "fd" (fun () -> Fd_graph.remove t.fd id) in
      let ind_base = span t "ind_edges" (fun () -> remap_edges id t.ind_base) in
      install_after_state_change t db' ~fd ~ind_base;
      t.digests <- splice t.digests id;
      (* R changed: every signature embeds the epoch, so the whole
         verdict cache is conservatively dirty — but the partition
         itself is maintained like an evict's. *)
      t.epoch <- t.epoch + 1;
      span t "components" (fun () -> retrack_after_removal t id);
      Ok ()

let append_state t rows =
  let state = compact_with t.db.Bcdb.state rows in
  let db' = rebuild_db state t.db (Array.to_list t.db.Bcdb.pending) in
  install_after_state_change t db' ~fd:t.fd ~ind_base:t.ind_base;
  t.epoch <- t.epoch + 1;
  (* Ids did not move and Θ edges ignore R: tracked components hold. *)
  List.iter
    (fun tr -> Session.seed_components t.session tr.t_query tr.t_comps)
    t.tracked

let reset t db =
  span t "reset" @@ fun () ->
  let state = compact db.Bcdb.state in
  let db' = rebuild_db state db (Array.to_list db.Bcdb.pending) in
  let session' = Session.reseed t.session db' in
  Session.warm session';
  t.db <- db';
  t.session <- session';
  t.fd <- Session.fd_graph session';
  t.ind_base <- Session.ind_base_edges session';
  t.includable <- Session.includable session';
  t.digests <- all_digests db'.Bcdb.pending;
  (* Reorg: conservatively dirty everything — tracking (and with it the
     per-query verdict caches) restarts from scratch. *)
  t.epoch <- t.epoch + 1;
  t.tracked <- []

(* --- checks -------------------------------------------------------- *)

let track t q =
  match List.find_opt (fun tr -> same_query tr.t_query q) t.tracked with
  | Some tr -> tr
  | None ->
      let comps = Session.ind_components t.session q in
      let tr =
        {
          t_query = q;
          t_qthetas = Q.Theta.of_query (Q.Query.body q);
          t_comps = comps;
          t_sigs = None;
          t_sat = Hashtbl.create 64;
          t_viol = Hashtbl.create 8;
          t_checks = 0;
        }
      in
      t.tracked <- tr :: t.tracked;
      tr

let components t q = (track t q).t_comps

(* The members and signature of every component of [tr.t_comps], by
   position: re-signed only when an event has replaced the partition or
   bumped the epoch since the last check. Every event that changes a
   digest (add, evict, confirm) also replaces the partition; reset drops
   the tracking outright. *)
let signatures t tr =
  match tr.t_sigs with
  | Some (comps, epoch, sigs) when comps == tr.t_comps && epoch = t.epoch ->
      sigs
  | _ ->
      let sigs =
        Array.of_list
          (List.map (fun members -> (members, comp_signature t members)) tr.t_comps)
      in
      tr.t_sigs <- Some (tr.t_comps, t.epoch, sigs);
      sigs

(* Per-check hook closures over one tracked query — the clean probe
   and the solved callback both need a component's signature. The
   solver's [~index] is the component's position in the partition it
   solved; that partition is [tr.t_comps] when the solver read back what
   Live seeded, which the members' physical identity confirms. Any
   other partition is signed afresh. *)
let make_hooks t tr =
  let obs = Session.obs t.session in
  tr.t_checks <- tr.t_checks + 1;
  t.checks <- t.checks + 1;
  let sigs = signatures t tr in
  let signature index members =
    if index < Array.length sigs && fst sigs.(index) == members then
      snd sigs.(index)
    else comp_signature t members
  in
  let hit () =
    t.hits <- t.hits + 1;
    if Obs.enabled obs then Obs.add obs "live.comp_cache_hit" 1
  in
  (* Violated entries are keyed by signature {e and} member ids: twin
     components (identical content, distinct transactions) share a
     signature, and a Satisfied verdict transfers between them — but a
     Violated one names ids, so each twin must replay only its own. *)
  let comp_clean ~index members =
    let s = signature index members in
    if Hashtbl.mem tr.t_sat s then begin
      Hashtbl.replace tr.t_sat s tr.t_checks;
      hit ();
      Some Dcsat.Comp_satisfied
    end
    else
      let vk = (s, members) in
      match Hashtbl.find_opt tr.t_viol vk with
      | Some (_, v) ->
          Hashtbl.replace tr.t_viol vk (tr.t_checks, v);
          hit ();
          Some v
      | None ->
          t.misses <- t.misses + 1;
          if Obs.enabled obs then Obs.add obs "live.comp_cache_miss" 1;
          None
  in
  let comp_solved ~index members verdict =
    let s = signature index members in
    t.dirty <- t.dirty + 1;
    if Obs.enabled obs then Obs.add obs "live.comp_dirty" 1;
    match verdict with
    | Dcsat.Comp_satisfied -> Hashtbl.replace tr.t_sat s tr.t_checks
    | Dcsat.Comp_violated _ ->
        Hashtbl.replace tr.t_viol (s, members) (tr.t_checks, verdict)
  in
  { Dcsat.comp_clean; comp_solved }

let prune tr =
  if tr.t_checks mod keep_window = 0 then begin
    Hashtbl.filter_map_inplace
      (fun _ stamp ->
        if tr.t_checks - stamp > keep_window then None else Some stamp)
      tr.t_sat;
    Hashtbl.filter_map_inplace
      (fun _ ((stamp, _) as entry) ->
        if tr.t_checks - stamp > keep_window then None else Some entry)
      tr.t_viol
  end

let check ?(jobs = 1) ?(budget = Engine.Budget.unlimited) ?(use_cache = true)
    t q =
  (* A tractable-decided query never reaches the component machinery:
     skip both the seeding and the cache bookkeeping. *)
  if Tractable.decides t.db q then
    Solver.solve ~jobs ~budget t.session q
  else begin
    (* The cache only applies where OptDCSat will actually run — the
       component factorization is what makes per-component verdicts
       reusable. Naive/brute fallbacks check without hooks. Budgeted
       (admission-controlled) requests also bypass it: a cached verdict
       would answer where the budget-tripped solve must return
       [Unknown], breaking cache-on/off bit-identity. *)
    let cacheable =
      use_cache
      && Engine.Budget.is_unlimited budget
      &&
      match q with
      | Q.Query.Boolean body -> Q.Gaifman.is_connected body
      | Q.Query.Aggregate _ -> false
    in
    (* Seeding the session's component cache is a [track] side effect,
       so the solver answers from the maintained partition. *)
    let tr = track t q in
    let comp_hooks = if cacheable then Some (make_hooks t tr) else None in
    let result = Solver.solve ~jobs ~budget ?comp_hooks t.session q in
    if cacheable then prune tr;
    result
  end
