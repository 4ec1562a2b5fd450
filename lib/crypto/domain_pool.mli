(** A dependency-free work pool over [Domain.spawn]: persistent worker
    domains parked on a mutex/condvar queue, fed index-parallel loops.

    Workers start on the first batch that runs in parallel, not at
    {!create}. Size 1 never spawns a domain and runs loops as plain
    sequential [for] — exactly the single-domain behaviour, with zero
    synchronization.

    Batches are abort-safe: a fired cancel token, a shutdown, or (under
    {!run_supervised}) a worker fault stops further claims, and the
    barrier waits until no participant can touch another item before the
    typed outcome is raised — an aborted batch is quiescent, never
    merely abandoned (DESIGN.md §15). *)

type t

(** [create size] makes a pool of [size - 1] persistent worker domains
    (the caller of {!run} is the remaining participant), spawned on the
    first {!run} or {!run_supervised} batch that runs in parallel.
    [size] is clamped to [\[1, 128\]]. Pools that spawned register an
    [at_exit] {!shutdown} so a forgotten pool cannot hang program
    termination. *)
val create : int -> t

(** Total parallelism, including the calling domain. *)
val size : t -> int

(** A worker hung and was abandoned: the pool runs every later batch
    sequentially on the caller (graceful degradation — slower, never
    wedged). *)
val poisoned : t -> bool

(** What went wrong inside a supervised batch. *)
type worker_fault =
  | Item_raised of { item : int; exn : exn }
      (** [f item] raised; the batch was abort-failed (fail-fast) *)
  | Worker_hung of { slot : int; item : int; silent_s : float }
      (** the worker on [slot] went silent for [silent_s] while running
          [item]; the pool is poisoned and the domain abandoned *)

(** {!shutdown} raced an in-flight batch: [unclaimed] items never ran.
    Raised to the batch caller instead of returning partial results. *)
exception Pool_shutdown of { unclaimed : int }

(** A supervised batch failed; carries the first {!worker_fault}. *)
exception Pool_failure of worker_fault

(** Supervision knobs: a claimed item silent past [hang_timeout_s] is
    declared hung (heartbeats are per-claim — one item must finish
    within the timeout); the supervisor samples every
    [poll_interval_s]. *)
type supervisor = { hang_timeout_s : float; poll_interval_s : float }

(** 10 s hang timeout, 2 ms poll. *)
val default_supervisor : supervisor

(** [run t ~n ~f] executes [f i] exactly once for every [i] in [0, n),
    across the pool's domains plus the caller, and returns once every
    item has finished (a full barrier: the items' writes are published to
    the caller). Items must be mutually independent. If any [f i] raises,
    the remaining items still run and the first exception is re-raised in
    the caller after the barrier.

    [cancel] is polled before every item claim: once it fires the batch
    aborts (participants stop claiming, running items finish) and the
    caller raises [Secyan_deadline.Cancelled] after quiescence. An
    unconstrained, unfired token costs two atomic reads per item.

    @raise Pool_shutdown if {!shutdown} lands mid-batch, after the batch
    is quiescent. *)
val run : ?cancel:Secyan_deadline.t -> t -> n:int -> f:(int -> unit) -> unit

(** [run_inline t ~n ~f] runs the batch sequentially on the caller —
    the path {!run} takes on a size-1 pool — whatever the pool's size,
    and spawns nothing. It charges the caller's (slot 0) timeline and
    polls [cancel] before every item. For batches too small to repay a
    parallel fan-out. *)
val run_inline : ?cancel:Secyan_deadline.t -> t -> n:int -> f:(int -> unit) -> unit

(** Like {!run}, but the caller supervises instead of claiming items:
    workers heartbeat per claim, the first item exception abort-fails
    the whole batch (fail-fast, unlike {!run}), and a worker silent past
    [supervisor.hang_timeout_s] poisons the pool and fails the batch as
    [Worker_hung]. On a poisoned, shut-down, or size-1 pool the batch
    runs sequentially on the caller with the same fail-fast contract.
    Determinism note: item results must not depend on which domain runs
    them (they do not — batch items are seeded by item index), so
    supervised and plain runs produce bit-identical results.

    @raise Pool_failure with the first fault, after quiescence (for
    [Worker_hung], quiescence nets out the hung worker, which may still
    be running — the caller must drop, not reuse, any state that worker
    could touch).
    @raise Secyan_deadline.Cancelled when [cancel] fired mid-batch.
    @raise Pool_shutdown as {!run}. *)
val run_supervised :
  ?cancel:Secyan_deadline.t ->
  ?supervisor:supervisor ->
  t ->
  n:int ->
  f:(int -> unit) ->
  unit

(** Join the worker domains. Idempotent — a second call, a call racing
    the [at_exit] hook, or a call after a worker-side exception all
    return promptly without double-joining (the domain list is claimed
    atomically under the pool lock). Workers mid-batch abandon the batch
    at their next claim and its caller gets {!Pool_shutdown}; slots
    declared hung are never joined (the domain leaks until process exit
    — the only sound option). A shut-down pool still accepts {!run},
    which then executes sequentially on the caller. *)
val shutdown : t -> unit

(** {1 Contention profiling}

    Recorded only while [Secyan_metrics.enabled]; with metrics off the
    pool never reads a clock (supervised batches excepted — supervision
    is clock-based by nature). *)

(** One participant's accumulated timeline. [domain] 0 is the calling
    domain; workers are 1 .. size-1. For workers [wall_ns] is the time
    since the domain was spawned (or since {!reset_timelines}), and 0
    while the pool has not spawned; for the
    caller it is the total time spent inside {!run}. While profiling,
    busy + queue-wait + lock-wait accounts for a participant's wall
    clock (workers spend the rest of their lives parked, which counts
    as queue-wait). *)
type timeline_snapshot = {
  domain : int;
  busy_ns : float;        (** running items *)
  queue_wait_ns : float;  (** parked between batches / waiting on the barrier *)
  lock_wait_ns : float;   (** acquiring the pool mutex *)
  wall_ns : float;
  batches : int;          (** batches this participant claimed >= 1 item of *)
  items : int;
  wakeups : int;          (** condition-variable wakeups *)
}

(** Snapshot every participant's timeline (index = [domain]). Safe to
    call between batches; racing a running batch reads slightly stale
    values, never corrupt ones. *)
val timelines : t -> timeline_snapshot list

(** Zero the timelines (and restart the workers' wall-clock origin).
    Call it between batches, not while one runs. *)
val reset_timelines : t -> unit
