module Work_source = struct
  type t = unit -> int list option

  let of_list items =
    let remaining = ref items in
    fun () ->
      match !remaining with
      | [] -> None
      | x :: tl ->
          remaining := tl;
          Some x

  let of_cliques ?interrupt graph ~back =
    let next = Bcgraph.Bron_kerbosch.generator ?interrupt graph in
    fun () -> Option.map (List.map (fun i -> back.(i))) (next ())
end

(* Cooperative cancellation: a budget is checked on the claim path (the
   single point every backend funnels work through) and, via
   {!Budget.interrupt}, inside Bron–Kerbosch branching steps. A budget
   never interrupts an evaluation in flight — limits are enforced at
   work-item granularity, so [max_worlds] may be overshot by up to
   [jobs - 1] in-flight items. Tripping is sticky: the first reason
   observed is the one reported. All mutation happens on the claim path
   (under the engine lock in the parallel backend) or inside source
   pulls, which run under that same lock; OptDCSat, which checks a
   budget per clique inside its workers, serializes those checks under
   its own lock. *)
module Budget = struct
  type reason = Deadline | Max_worlds

  type t = {
    deadline : float option;  (* absolute Monotime.now target *)
    max_worlds : int;
    mutable tripped : reason option;
  }

  let unlimited = { deadline = None; max_worlds = max_int; tripped = None }

  let create ?timeout_s ?max_worlds () =
    (match timeout_s with
    | Some s when Float.is_nan s -> invalid_arg "Engine.Budget.create: NaN timeout"
    | Some s when s < 0.0 -> invalid_arg "Engine.Budget.create: negative timeout"
    | _ -> ());
    (match max_worlds with
    | Some n when n < 0 -> invalid_arg "Engine.Budget.create: negative max_worlds"
    | _ -> ());
    {
      deadline = Option.map (fun s -> Monotime.now () +. s) timeout_s;
      max_worlds = Option.value max_worlds ~default:max_int;
      tripped = None;
    }

  let is_unlimited t = t.deadline = None && t.max_worlds = max_int

  let tripped t = t.tripped
  let trip t reason = if t.tripped = None then t.tripped <- Some reason

  let deadline_passed t =
    match t.deadline with Some d -> Monotime.now () > d | None -> false

  let check t ~evaluated =
    (if t.tripped = None then
       if evaluated >= t.max_worlds then trip t Max_worlds
       else if deadline_passed t then trip t Deadline);
    t.tripped

  (* The hook handed to Bron_kerbosch.generator: only the deadline can
     fire between yields (the world limit is a claim-path property). *)
  let interrupt t () =
    t.tripped <> None
    ||
    if deadline_passed t then begin
      trip t Deadline;
      true
    end
    else false

  let reason_name = function Deadline -> "deadline" | Max_worlds -> "max-worlds"

  let pp_reason ppf r = Format.pp_print_string ppf (reason_name r)
end

type violation = {
  world : int list;
  witness : (string * Relational.Value.t) list option;
}

type evaluation = { world : int list; violation : violation option }

type report = {
  hit : violation option;
  pulled : int;
  evaluated : int;
  exhausted : Budget.reason option;
}

(* Upper bound on the worker count of one parallel run. *)
let max_jobs = 64

(* Per-item evaluation time feeds the "engine.busy_s" histogram (its sum
   over jobs × wall time is the worker-utilization headline number). *)
let eval_timed obs eval store members =
  if Obs.enabled obs then begin
    let since = Monotime.now () in
    let ev = eval store members in
    Obs.observe obs "engine.busy_s" (Monotime.elapsed ~since);
    ev
  end
  else eval store members

let run_sequential ~obs ~budget ~stop_on_hit ~store ~source ~eval ~on_item
    ~on_evaluated =
  (* [eval] is a factory: one evaluator instance per worker, so stateful
     evaluators (incremental world caches) are never shared between
     domains. The sequential backend is its own single worker, and its
     store is the primary one. *)
  let eval = eval () in
  let pulled = ref 0 and evaluated = ref 0 in
  let hit = ref None in
  let rec go () =
    if Budget.check budget ~evaluated:!evaluated <> None then ()
    else
      match source () with
      | None -> ()
      | Some members ->
          incr pulled;
          on_item members;
          let ev = eval_timed obs eval store members in
          incr evaluated;
          on_evaluated ev;
          (match ev.violation with
          | Some _ when !hit = None -> hit := ev.violation
          | _ -> ());
          if !hit = None || not stop_on_hit then go ()
  in
  go ();
  {
    hit = !hit;
    pulled = !pulled;
    evaluated = !evaluated;
    exhausted = Budget.tripped budget;
  }

(* A pool of parked helper domains, reused across engine runs.
   [Domain.spawn] costs milliseconds — often more than an entire small
   solve — so helpers are spawned once and then sleep on a condition
   variable between runs (where they don't take part in GC barriers
   either). The pool only ever grows to the high-water mark of
   concurrently requested helpers. *)
module Pool = struct
  type slot = {
    m : Mutex.t;
    cv : Condition.t;
    mutable job : (unit -> unit) option;
  }

  let lock = Mutex.create ()
  let idle : slot list ref = ref []

  let rec loop slot =
    Mutex.lock slot.m;
    while slot.job = None do
      Condition.wait slot.cv slot.m
    done;
    let job = match slot.job with Some j -> j | None -> assert false in
    Mutex.unlock slot.m;
    (* Backstop only: submitted jobs are exception-safe wrappers (see
       [guarded] in [run_parallel]) that record failures and signal
       completion themselves. Swallowing here merely keeps a buggy future
       caller from killing a parked domain; it must never be the place a
       worker failure is "handled", or the submitter's join deadlocks. *)
    (try job () with _ -> ());
    Mutex.lock slot.m;
    slot.job <- None;
    Mutex.unlock slot.m;
    Mutex.lock lock;
    idle := slot :: !idle;
    Mutex.unlock lock;
    loop slot

  let take () =
    Mutex.lock lock;
    let reused =
      match !idle with
      | s :: tl ->
          idle := tl;
          Some s
      | [] -> None
    in
    Mutex.unlock lock;
    match reused with
    | Some s -> s
    | None ->
        let s = { m = Mutex.create (); cv = Condition.create (); job = None } in
        ignore (Domain.spawn (fun () -> loop s) : unit Domain.t);
        s

  let submit slot job =
    Mutex.lock slot.m;
    slot.job <- Some job;
    Condition.signal slot.cv;
    Mutex.unlock slot.m
end

(* Parallel backend. Work items are claimed from the source in index
   order under a single lock — the source itself may touch the primary
   store (Covers tests, can-append checks), which is safe because only
   the claim path ever does. The calling domain is one of the [jobs]
   workers (so [jobs = 2] parks only one helper, and a helper that never
   gets scheduled costs nothing); the rest come from the persistent
   {!Pool}. Each worker evaluates every item it claims on the one
   private full replica it owns, borrowed lazily (and under the lock,
   since replication reads the primary store) when the worker claims its
   first item — a worker that never claims one never pays for a clone.
   No store is ever shared between worker domains. Once any violation
   is recorded, claiming stops: unclaimed items all carry higher indexes
   than every claimed one, so none of them can beat the recorded
   violation; workers finish the items they already hold, and the
   lowest-index violation wins. That makes the returned witness — and,
   after clamping the work counters to the winning index, the reported
   stats — deterministic and equal to the sequential backend's. *)
let run_parallel ~obs ~jobs ~budget ~stop_on_hit ~replicate ~release ~source
    ~eval ~on_item ~on_evaluated =
  let lock = Mutex.create () in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let stop = Atomic.make false in
  let best = ref None in
  let next_index = ref 0 in
  let eval_count = Atomic.make 0 in
  let borrowed = ref [] in
  let claim_raw () =
    locked (fun () ->
        if Atomic.get stop then None
        else if Budget.check budget ~evaluated:(Atomic.get eval_count) <> None
        then None
        else
          match source () with
          | None -> None
          | Some members ->
              let i = !next_index in
              incr next_index;
              on_item members;
              Some (i, members))
  in
  let claim () =
    (* The claim span covers lock acquisition plus the pull itself, so a
       trace shows contention on the claim path as wide "claim" slices.
       One claim per item: no span closure unless recording. *)
    if Obs.enabled obs then Obs.span obs ~cat:"engine" "claim" claim_raw
    else claim_raw ()
  in
  let record i v =
    locked (fun () ->
        (match !best with
        | Some (bi, _) when bi <= i -> ()
        | _ -> best := Some (i, v));
        (* [stop_on_hit:false] drains the source despite violations (the
           dirty-component scheduler wants every item solved); the
           lowest-claim-index violation still wins. *)
        if stop_on_hit then Atomic.set stop true)
  in
  let worker () =
    let eval = eval () in
    let replica = ref None in
    let store () =
      match !replica with
      | Some store -> store
      | None ->
          let store =
            locked (fun () ->
                let store = replicate () in
                borrowed := store :: !borrowed;
                store)
          in
          replica := Some store;
          store
    in
    let claimed = ref [] in
    let rec go () =
      match claim () with
      | None -> ()
      | Some (i, members) ->
          let ev = eval_timed obs eval (store ()) members in
          Atomic.incr eval_count;
          claimed := i :: !claimed;
          locked (fun () -> on_evaluated ev);
          (match ev.violation with Some v -> record i v | None -> ());
          go ()
    in
    Obs.span obs ~cat:"engine" "worker" go;
    !claimed
  in
  (* Exception safety. A worker body may raise (a broken [eval], an
     interrupted replica clone): the raise must not strand [finished] —
     that deadlocks the join — and must not leak borrowed replicas. Each
     worker runs under a catch-all that records the first failure (with
     its backtrace), flips [stop] so the other workers drain quickly, and
     still counts itself finished; after the join, every borrowed replica
     is released and the recorded exception is re-raised to the caller.
     The pool's parked domains never see the exception, so the pool stays
     reusable for the next run. *)
  let failure = ref None in
  let guarded w =
    match w () with
    | claimed -> claimed
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        locked (fun () -> if !failure = None then failure := Some (e, bt));
        Atomic.set stop true;
        []
  in
  let done_m = Mutex.create () and done_cv = Condition.create () in
  let helpers = jobs - 1 in
  let finished = ref 0 in
  let helper_claims = ref [] in
  for _ = 1 to helpers do
    Pool.submit (Pool.take ()) (fun () ->
        let claimed = guarded worker in
        Mutex.lock done_m;
        helper_claims := claimed @ !helper_claims;
        incr finished;
        Condition.signal done_cv;
        Mutex.unlock done_m)
  done;
  let mine = guarded worker in
  Obs.span obs ~cat:"engine" "join" (fun () ->
      Mutex.lock done_m;
      while !finished < helpers do
        Condition.wait done_cv done_m
      done;
      Mutex.unlock done_m);
  let claimed = mine @ !helper_claims in
  List.iter release !borrowed;
  (match !failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  let win, hit =
    match !best with None -> (max_int, None) | Some (i, v) -> (i, Some v)
  in
  (* On an early stop, counts are clamped to the winning index (the
     determinism contract); a drained run reports full counts. *)
  let counted =
    if stop_on_hit then List.length (List.filter (fun i -> i <= win) claimed)
    else List.length claimed
  in
  { hit; pulled = counted; evaluated = counted; exhausted = Budget.tripped budget }

let run ?(obs = Obs.null) ?(budget = Budget.unlimited) ?(stop_on_hit = true)
    ~jobs ~store ~replicate ?(release = ignore) ~source ~eval ~on_item
    ~on_evaluated () =
  if jobs <= 1 then
    run_sequential ~obs ~budget ~stop_on_hit ~store ~source ~eval ~on_item
      ~on_evaluated
  else
    run_parallel ~obs ~jobs:(min jobs max_jobs) ~budget ~stop_on_hit
      ~replicate ~release ~source ~eval ~on_item ~on_evaluated
