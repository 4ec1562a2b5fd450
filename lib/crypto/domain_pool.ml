(** A dependency-free work pool over [Domain.spawn] (OCaml 5 stdlib only).

    The pool runs index-parallel loops: [run pool ~n ~f] executes [f i]
    exactly once for every [i] in [0, n), spreading the items over the
    pool's domains plus the calling domain. Items must be independent —
    the pool provides no ordering between them, only a completion barrier
    (all items finished, and their writes published, before [run]
    returns).

    A pool of size 1 spawns no domains and [run] degenerates to a plain
    sequential [for] loop — exactly the pre-pool behaviour, with zero
    synchronization.

    Workers are persistent: they are spawned once, on the first batch
    that actually runs in parallel (not at [create], so a pool whose
    batches all run sequentially never starts a domain), and park on a
    mutex/condition-variable queue between batches, so per-batch
    overhead is one broadcast plus one atomic fetch-and-add per item.
    [shutdown] joins the workers; pools also register an [at_exit] hook so
    forgotten pools cannot hang program termination.

    {2 Cancellation and abort safety}

    Every batch carries an [abort] flag and an [active] participant
    count. A participant {e increments [active] before} it re-checks
    [abort]/[stop]/the cancel token, and only claims an item if the
    check passed; aborters and the supervisor wait for [active] to reach
    zero (minus known-hung workers). Under SC atomics this means: once
    an observer has seen [abort] set and [active] drained, no
    participant can touch another item or draw from the batch's
    recycled item PRGs — the batch is quiescent, not merely
    abandoned. That ordering is the whole point; do not reorder the
    [active] increment after the abort check.

    {2 Supervision}

    [run_supervised] keeps the calling domain out of the claim loop and
    turns it into a supervisor: workers stamp a heartbeat and publish
    the claimed item index before running it, and the supervisor polls
    for (a) a recorded item exception (fail-fast abort), (b) a worker
    silent past [hang_timeout_s] while holding a claim, (c) the cancel
    token firing, (d) pool shutdown. A hang poisons the pool — the hung
    domain cannot be joined or recovered, so every later batch runs
    sequentially on the caller ({!poisoned}) and [shutdown] skips the
    hung slot (the domain leaks until process exit, which is the only
    sound option OCaml offers). Heartbeats are per-claim, so a single
    item must finish within [hang_timeout_s]; size the timeout for the
    workload, not the batch.

    When [Secyan_metrics.enabled], every participant keeps a contention
    timeline — nanoseconds spent running items (busy), parked or waiting
    on the barrier (queue-wait), and acquiring the pool lock (lock-wait),
    plus batches/items claimed and condvar wakeups — readable via
    {!timelines}. Timing uses [Unix.gettimeofday] (microsecond
    resolution), which is far finer than the millisecond-scale waits the
    profile exists to expose. With metrics disabled no clock is read and
    the code paths are the unprofiled originals. *)

type timeline = {
  slot : int;  (* 0 = the calling domain, 1.. = workers *)
  mutable busy_ns : float;
  mutable queue_wait_ns : float;
  mutable lock_wait_ns : float;
  mutable batches : int;   (* batches this participant claimed >= 1 item of *)
  mutable items : int;
  mutable wakeups : int;   (* condvar wakeups (worker parking + barrier) *)
  mutable origin_ns : float;
      (* workers: spawn (or last reset) timestamp, for wall-clock;
         caller (slot 0): unused, wall accumulates in [run_ns] *)
  mutable run_ns : float;  (* slot 0 only: wall-clock spent inside [run] *)
}

type worker_fault =
  | Item_raised of { item : int; exn : exn }
  | Worker_hung of { slot : int; item : int; silent_s : float }

exception Pool_shutdown of { unclaimed : int }
exception Pool_failure of worker_fault

let () =
  Printexc.register_printer (function
    | Pool_shutdown { unclaimed } ->
        Some (Printf.sprintf "Pool_shutdown { unclaimed = %d }" unclaimed)
    | Pool_failure (Item_raised { item; exn }) ->
        Some
          (Printf.sprintf "Pool_failure (Item_raised { item = %d; exn = %s })"
             item (Printexc.to_string exn))
    | Pool_failure (Worker_hung { slot; item; silent_s }) ->
        Some
          (Printf.sprintf
             "Pool_failure (Worker_hung { slot = %d; item = %d; silent_s = %.2f })"
             slot item silent_s)
    | _ -> None)

type supervisor = {
  hang_timeout_s : float;  (* a claimed item silent longer than this is hung *)
  poll_interval_s : float;
}

let default_supervisor = { hang_timeout_s = 10.; poll_interval_s = 0.002 }

type job = {
  f : int -> unit;
  n : int;
  next : int Atomic.t;      (* next unclaimed index *)
  finished : int Atomic.t;  (* items fully processed *)
  active : int Atomic.t;    (* participants inside the claim/run loop *)
  abort : bool Atomic.t;    (* stop claiming; drain and leave *)
  cancel : Secyan_deadline.t option;  (* polled before every claim *)
  fail_fast : bool;         (* abort the batch on the first item exception *)
  heartbeat : bool;         (* publish claims/beats (supervised batches) *)
  failure : worker_fault option Atomic.t;  (* first fault wins *)
}

type t = {
  size : int;
  lock : Mutex.t;
  work : Condition.t;  (* a job was posted, or shutdown requested *)
  idle : Condition.t;  (* a job completed, or a participant left the batch *)
  mutable pending : job option;
  stop : bool Atomic.t;
  poisoned : bool Atomic.t;  (* a worker hung; all later batches sequential *)
  hung : bool array;         (* per slot, written by the supervisor under lock *)
  claims : int Atomic.t array;   (* per slot: running item index, -1 when idle *)
  beats : int Atomic.t array;    (* per slot: last heartbeat, ns since epoch *)
  mutable domains : (int * unit Domain.t) list;
      (* (slot, domain); [] until the first parallel batch and after shutdown *)
  timelines : timeline array;  (* one per participant, index = slot *)
}

let size t = t.size
let poisoned t = Atomic.get t.poisoned

let profiling () = Secyan_metrics.enabled ()

let now_ns () = Unix.gettimeofday () *. 1e9

(* 63-bit ns since the epoch: fits until ~2262, and [int Atomic.t] sets
   are unboxed (an [int64 Atomic.t] would allocate per heartbeat). *)
let now_ns_int () = int_of_float (Unix.gettimeofday () *. 1e9)

let m_hangs =
  lazy
    (Secyan_metrics.counter ~help:"pool workers declared hung by the supervisor"
       "secyan_worker_hangs_total")

let m_poisoned =
  lazy
    (Secyan_metrics.counter ~help:"pools poisoned after a worker hang"
       "secyan_pool_poisoned_total")

let m_sequential_fallbacks =
  lazy
    (Secyan_metrics.counter
       ~help:"batches run sequentially because the pool was poisoned"
       "secyan_pool_sequential_fallbacks_total")

let fresh_timeline slot =
  { slot; busy_ns = 0.; queue_wait_ns = 0.; lock_wait_ns = 0.; batches = 0; items = 0;
    wakeups = 0; origin_ns = 0.; run_ns = 0. }

(* Take the pool lock, charging contention to [tl] when profiling. The
   try_lock fast path keeps the uncontended case clock-free. *)
let lock_timed t tl =
  if profiling () then begin
    if not (Mutex.try_lock t.lock) then begin
      let t0 = now_ns () in
      Mutex.lock t.lock;
      tl.lock_wait_ns <- tl.lock_wait_ns +. (now_ns () -. t0)
    end
  end
  else Mutex.lock t.lock

let record_fault job fault =
  ignore (Atomic.compare_and_set job.failure None (Some fault) : bool)

(* Should this participant stop claiming? Re-checked after every [active]
   increment; also trips the batch abort when the cancel token fires. *)
let stopping t job =
  Atomic.get job.abort || Atomic.get t.stop
  ||
  match job.cancel with
  | Some c when Secyan_deadline.poll c <> None ->
      Atomic.set job.abort true;
      true
  | _ -> false

(* Claim and run items of [job] until the index space is exhausted or the
   batch aborts. Exceptions from [f] are recorded (first wins) and
   re-raised by [run] on the calling domain; the item still counts as
   finished so the barrier cannot deadlock. Leaving participants
   unpublish the job (so parked workers do not rediscover it) and
   broadcast [idle] so a caller blocked on the barrier re-evaluates. *)
let drain t tl ~slot job =
  let leave () =
    lock_timed t tl;
    (match t.pending with
    | Some j when j == job -> t.pending <- None
    | _ -> ());
    Condition.broadcast t.idle;
    Mutex.unlock t.lock
  in
  let run_item i =
    try job.f i
    with e ->
      record_fault job (Item_raised { item = i; exn = e });
      if job.fail_fast then Atomic.set job.abort true
  in
  let rec go claimed_any =
    (* [active] up BEFORE the abort check: an observer that sees abort
       set and active = 0 knows no further claim can happen. *)
    Atomic.incr job.active;
    if stopping t job then begin
      Atomic.decr job.active;
      leave ()
    end
    else begin
      let i = Atomic.fetch_and_add job.next 1 in
      if i >= job.n then begin
        Atomic.decr job.active;
        leave ()
      end
      else begin
        if job.heartbeat then begin
          Atomic.set t.beats.(slot) (now_ns_int ());
          Atomic.set t.claims.(slot) i
        end;
        if profiling () then begin
          if not claimed_any then tl.batches <- tl.batches + 1;
          let t0 = now_ns () in
          run_item i;
          tl.busy_ns <- tl.busy_ns +. (now_ns () -. t0);
          tl.items <- tl.items + 1
        end
        else run_item i;
        if job.heartbeat then Atomic.set t.claims.(slot) (-1);
        ignore (Atomic.fetch_and_add job.finished 1 : int);
        Atomic.decr job.active;
        if Atomic.get job.finished = job.n then begin
          lock_timed t tl;
          Condition.broadcast t.idle;
          Mutex.unlock t.lock
        end;
        go true
      end
    end
  in
  go false

let rec worker t slot =
  let tl = t.timelines.(slot) in
  lock_timed t tl;
  while t.pending = None && not (Atomic.get t.stop) do
    if profiling () then begin
      let t0 = now_ns () in
      Condition.wait t.work t.lock;
      (* a park that began before {!reset_timelines} counts from the
         reset, as the wall clock does *)
      tl.queue_wait_ns <- tl.queue_wait_ns +. (now_ns () -. Float.max t0 tl.origin_ns);
      tl.wakeups <- tl.wakeups + 1
    end
    else Condition.wait t.work t.lock
  done;
  if Atomic.get t.stop then Mutex.unlock t.lock
  else begin
    let job = match t.pending with Some j -> j | None -> assert false in
    Mutex.unlock t.lock;
    drain t tl ~slot job;
    worker t slot
  end

(* Idempotent — and safe against concurrent callers (a test shutting the
   pool down racing the [at_exit] hook): the domain list is captured and
   cleared atomically under the lock, so exactly one caller joins each
   worker and a second call finds nothing to do. Workers parked in
   [Condition.wait] wake on the broadcast and exit; a worker mid-drain
   sees [stop] at its next claim, leaves the batch, re-checks [stop],
   and exits — the batch's caller is woken via [idle] and raises the
   typed {!Pool_shutdown} instead of returning partial results. Slots
   declared hung by a supervisor are never joined (a join would hang
   forever); those domains leak until process exit by design. *)
let shutdown t =
  Mutex.lock t.lock;
  Atomic.set t.stop true;
  Condition.broadcast t.work;
  Condition.broadcast t.idle;
  let doomed = t.domains in
  t.domains <- [];
  let joinable = List.filter (fun (slot, _) -> not t.hung.(slot)) doomed in
  Mutex.unlock t.lock;
  List.iter (fun (_, d) -> Domain.join d) joinable

let create size =
  let size = max 1 (min size 128) in
  {
    size;
    lock = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    pending = None;
    stop = Atomic.make false;
    poisoned = Atomic.make false;
    hung = Array.make size false;
    claims = Array.init size (fun _ -> Atomic.make (-1));
    beats = Array.init size (fun _ -> Atomic.make 0);
    domains = [];
    timelines = Array.init size fresh_timeline;
  }

(* Spawn the [size - 1] workers, once, on the first batch that runs in
   parallel. Under the lock so a racing [shutdown] either sees the
   workers (and joins them) or has already set [stop] (and none start). *)
let ensure_workers t =
  if t.domains = [] then begin
    Mutex.lock t.lock;
    if t.domains = [] && not (Atomic.get t.stop) then begin
      t.domains <-
        List.init (t.size - 1) (fun i ->
            let slot = i + 1 in
            ( slot,
              Domain.spawn (fun () ->
                  t.timelines.(slot).origin_ns <- now_ns ();
                  worker t slot) ));
      (* A parked worker would keep the program alive at exit; make sure
         forgotten pools wind down. [shutdown] is idempotent. *)
      at_exit (fun () -> shutdown t)
    end;
    Mutex.unlock t.lock
  end

(* Sequential execution on the caller — the size-1 / shut-down / poisoned
   path. Still polls the cancel token between items so a sequential
   fallback honours deadlines exactly like the pooled path. *)
let run_sequential ?cancel t ~n ~f =
  let step i =
    (match cancel with
    | Some c -> Secyan_deadline.check ~where:"pool:item" c
    | None -> ());
    f i
  in
  if profiling () then begin
    (* profiled sequential path: all wall-clock is busy time *)
    let tl = t.timelines.(0) in
    let t0 = now_ns () in
    for i = 0 to n - 1 do
      step i
    done;
    let d = now_ns () -. t0 in
    tl.busy_ns <- tl.busy_ns +. d;
    tl.run_ns <- tl.run_ns +. d;
    tl.items <- tl.items + n;
    tl.batches <- tl.batches + 1
  end
  else
    for i = 0 to n - 1 do
      step i
    done

let run_inline ?cancel t ~n ~f = if n > 0 then run_sequential ?cancel t ~n ~f

let sequential_only t =
  t.size = 1 || Atomic.get t.stop
  ||
  if Atomic.get t.poisoned then begin
    Secyan_metrics.add (Lazy.force m_sequential_fallbacks) 1;
    true
  end
  else false

let post t tl job =
  lock_timed t tl;
  t.pending <- Some job;
  Condition.broadcast t.work;
  Mutex.unlock t.lock

(* Quiescent: every item done, or the batch aborted and no participant
   can claim another item ([active] drained, modulo known-hung workers —
   plain batches have none). *)
let batch_quiescent t job =
  Atomic.get job.finished = job.n
  || ((Atomic.get job.abort || Atomic.get t.stop) && Atomic.get job.active = 0)

(* Raise the typed outcome of an incomplete or faulted batch; returns
   normally only when every item finished and none raised. Priority:
   recorded item fault, then cancellation, then shutdown. *)
let resolve t job ~supervised =
  (match Atomic.get job.failure with
  | Some (Item_raised { exn; _ }) when not supervised ->
      (* plain [run] keeps the historical contract: first exception,
         re-raised as itself *)
      raise exn
  | Some fault -> raise (Pool_failure fault)
  | None -> ());
  if Atomic.get job.finished < job.n then begin
    (match job.cancel with
    | Some c -> Secyan_deadline.check ~where:"pool:batch" c
    | None -> ());
    if Atomic.get t.stop then
      raise (Pool_shutdown { unclaimed = job.n - Atomic.get job.finished })
    else
      (* abort with no fault, no cancellation, no stop cannot happen *)
      assert false
  end

let run ?cancel t ~n ~f =
  if n > 0 then
    if sequential_only t || n = 1 then run_sequential ?cancel t ~n ~f
    else begin
      let tl = t.timelines.(0) in
      let t_start = if profiling () then now_ns () else 0. in
      let job =
        { f; n; next = Atomic.make 0; finished = Atomic.make 0;
          active = Atomic.make 0; abort = Atomic.make false; cancel;
          fail_fast = false; heartbeat = false; failure = Atomic.make None }
      in
      ensure_workers t;
      post t tl job;
      drain t tl ~slot:0 job;
      lock_timed t tl;
      while not (batch_quiescent t job) do
        if profiling () then begin
          let t0 = now_ns () in
          Condition.wait t.idle t.lock;
          tl.queue_wait_ns <- tl.queue_wait_ns +. (now_ns () -. t0);
          tl.wakeups <- tl.wakeups + 1
        end
        else Condition.wait t.idle t.lock
      done;
      Mutex.unlock t.lock;
      if profiling () then tl.run_ns <- tl.run_ns +. (now_ns () -. t_start);
      resolve t job ~supervised:false
    end

(* Count hung workers still inside the claim loop: they contribute to
   [active] but will never drain, so the supervisor nets them out. *)
let hung_active t =
  let k = ref 0 in
  for slot = 1 to t.size - 1 do
    if t.hung.(slot) && Atomic.get t.claims.(slot) >= 0 then incr k
  done;
  !k

let declare_hung t job ~slot ~item ~silent_s =
  Mutex.lock t.lock;
  let fresh = not t.hung.(slot) in
  if fresh then t.hung.(slot) <- true;
  Mutex.unlock t.lock;
  if fresh then begin
    Secyan_metrics.add (Lazy.force m_hangs) 1;
    if not (Atomic.exchange t.poisoned true) then
      Secyan_metrics.add (Lazy.force m_poisoned) 1;
    record_fault job (Worker_hung { slot; item; silent_s });
    Atomic.set job.abort true
  end

let run_supervised ?cancel ?(supervisor = default_supervisor) t ~n ~f =
  if n > 0 then
    if sequential_only t || t.size = 1 then begin
      (* Sequential supervision: fail fast, with the item identified. *)
      let step i =
        (match cancel with
        | Some c -> Secyan_deadline.check ~where:"pool:item" c
        | None -> ());
        try f i
        with
        | Secyan_deadline.Cancelled _ as c -> raise c
        | e -> raise (Pool_failure (Item_raised { item = i; exn = e }))
      in
      for i = 0 to n - 1 do
        step i
      done
    end
    else begin
      let job =
        { f; n; next = Atomic.make 0; finished = Atomic.make 0;
          active = Atomic.make 0; abort = Atomic.make false; cancel;
          fail_fast = true; heartbeat = true; failure = Atomic.make None }
      in
      ensure_workers t;
      (* Pre-stamp every worker's heartbeat: a worker that never gets to
         claim (all parked) must not look hung. *)
      let t0 = now_ns_int () in
      for slot = 1 to t.size - 1 do
        Atomic.set t.beats.(slot) t0
      done;
      post t (t.timelines.(0)) job;
      (* The caller supervises instead of claiming items: a supervisor
         stuck inside [f] could rescue nobody. It polls rather than
         waiting on [idle] because OCaml's [Condition] has no timed
         wait, and hang detection needs a clock anyway. *)
      let rec watch () =
        if Atomic.get job.finished = job.n then ()
        else begin
          (match cancel with
          | Some c when Secyan_deadline.poll c <> None ->
              Atomic.set job.abort true
          | _ -> ());
          if Atomic.get t.stop then Atomic.set job.abort true;
          let now = now_ns_int () in
          for slot = 1 to t.size - 1 do
            if not t.hung.(slot) then begin
              let item = Atomic.get t.claims.(slot) in
              if item >= 0 then begin
                let silent_s =
                  float_of_int (now - Atomic.get t.beats.(slot)) *. 1e-9
                in
                if silent_s > supervisor.hang_timeout_s then
                  declare_hung t job ~slot ~item ~silent_s
              end
            end
          done;
          if
            (Atomic.get job.abort || Atomic.get t.stop)
            && Atomic.get job.active <= hung_active t
          then ()
          else begin
            Unix.sleepf supervisor.poll_interval_s;
            watch ()
          end
        end
      in
      watch ();
      resolve t job ~supervised:true
    end

type timeline_snapshot = {
  domain : int;
  busy_ns : float;
  queue_wait_ns : float;
  lock_wait_ns : float;
  wall_ns : float;
  batches : int;
  items : int;
  wakeups : int;
}

let timelines t =
  let now = now_ns () in
  Array.to_list
    (Array.map
       (fun (tl : timeline) ->
         {
           domain = tl.slot;
           busy_ns = tl.busy_ns;
           queue_wait_ns = tl.queue_wait_ns;
           lock_wait_ns = tl.lock_wait_ns;
           wall_ns =
             (if tl.slot = 0 then tl.run_ns
              else if tl.origin_ns > 0. then now -. tl.origin_ns
              else 0.);
           batches = tl.batches;
           items = tl.items;
           wakeups = tl.wakeups;
         })
       t.timelines)

let reset_timelines t =
  let now = now_ns () in
  Array.iter
    (fun (tl : timeline) ->
      tl.busy_ns <- 0.;
      tl.queue_wait_ns <- 0.;
      tl.lock_wait_ns <- 0.;
      tl.batches <- 0;
      tl.items <- 0;
      tl.wakeups <- 0;
      tl.run_ns <- 0.;
      if tl.slot > 0 && tl.origin_ns > 0. then tl.origin_ns <- now)
    t.timelines
