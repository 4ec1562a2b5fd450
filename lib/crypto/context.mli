(** Shared state of one protocol execution: annotation ring, security
    parameters, the cost-accounted channel, and each party's randomness
    (plus the trusted-dealer stream realizing the correlated-randomness
    substitutions of DESIGN.md §2). *)

type gc_backend =
  | Real  (** actually garble and evaluate circuits (tests, small benches) *)
  | Sim   (** clear evaluation inside the runtime; identical accounted cost *)

(** Computational security parameter κ = 128 bits. Fixed: wire labels
    are 128-bit blocks, so any other κ would account [Real] wrongly. *)
val kappa : int

(** Statistical security parameter σ = 40 bits. *)
val sigma : int

type t = {
  comm : Comm.t;
  ring : Zn.t;
  gc_backend : gc_backend;
  pool : Domain_pool.t Lazy.t;
      (** the batch engine's work pool, spawned on first parallel batch *)
  prg_alice : Prg.t;
  prg_bob : Prg.t;
  dealer : Prg.t;
  counters : int array;
      (** running totals of every {!Trace_sink.counter} (indexed by
          [Trace_sink.counter_index]), maintained by {!bump} whether or
          not an observer is attached; snapshotted into checkpoints *)
  transport : Secyan_net.Resilient.t option;
      (** the physical channel behind [comm], if any; [None] keeps the
          classic pure-accounting simulation *)
  checkpoint : Checkpoint.sink option;
      (** durable snapshot stream for the run, if checkpointing is on *)
  mutable cancel : Deadline.t;
      (** the query's cancel token; checked at phase boundaries,
          batch-item claims, and transport waits. Prefer {!set_cancel}
          over assigning — it also re-points the transport. *)
  mutable supervisor : Domain_pool.supervisor option;
      (** when set, batch entry points run pool-supervised (heartbeats,
          fail-fast, hang detection) and fail as
          [Gc_protocol.Supervision_error] *)
  mutable current_label : string;
      (** innermost span name, maintained by {!with_span} even untraced;
          names the phase in cancellation/supervision errors *)
}

(** Defaults match the paper's evaluation: bits = 32 annotation ring,
    simulated GC backend, [domains = 1] (fully sequential). [domains > 1]
    parallelizes the GC batch entry points with bit-identical results,
    communication, and rounds (see DESIGN.md §9). [transport] attaches a real framed channel
    as the first observer of [comm] (see DESIGN.md §10): every declared
    transfer then physically crosses it with timeout/retry protection,
    inside a typed envelope the protocol state machine checks before the
    send and validates on the echo (raising the typed
    [Protocol_schema.Protocol_violation] on out-of-schema traffic);
    observers attached later see each send after it crossed. Resilience
    events surface as the [Retries]/[Timeouts]/[Frames_corrupted] trace
    counters, and unrecoverable faults raise
    [Secyan_net.Resilient.Transport_error] out of the protocol phase.
    Tallies are bit-identical with and without a transport. [checkpoint]
    attaches a durable snapshot stream (see DESIGN.md §11): the query
    runtime emits a protocol-state checkpoint at every phase/operator
    boundary through it. [cancel] (default [Deadline.never ()]) is the
    query's cancel token — a deadline or memory budget cancels, never
    kills, and surfaces as [Deadline.Cancelled] at the next check;
    attached transports cap their waits by its remaining budget.
    [supervisor] turns on pool supervision for the batch entry points
    (DESIGN.md §15). Neither affects results, communication, or rounds:
    an unfired token and a supervised pool are observationally identical
    to the defaults. *)
val create :
  ?bits:int -> ?gc_backend:gc_backend -> ?domains:int ->
  ?transport:Secyan_net.Resilient.t -> ?checkpoint:Checkpoint.sink ->
  ?cancel:Deadline.t -> ?supervisor:Domain_pool.supervisor -> seed:int64 -> unit -> t

(** The context's work pool (spawned on first use). *)
val pool : t -> Domain_pool.t

(** The pool if it was ever spawned, without spawning it. *)
val pool_opt : t -> Domain_pool.t option

(** Join the pool's worker domains if any were spawned. Never needed for
    correctness (pools also shut down [at_exit]); promptly releases the
    domains of short-lived parallel contexts. *)
val shutdown_pool : t -> unit

(** Close the attached transport, if any (idempotent; no-op when
    simulating). *)
val close_transport : t -> unit

val prg_of : t -> Party.t -> Prg.t

val ring_bits : t -> int

(** Whether any observer is attached to the context's channel (see
    [Comm.attach]). *)
val traced : t -> bool

(** Replace the cancel token (e.g. per query on a long-lived context)
    and re-point the attached transport at it. *)
val set_cancel : t -> Deadline.t -> unit

(** Poll the cancel token; raise [Deadline.Cancelled] naming the current
    protocol phase if it has fired. The phase-boundary check — cheap
    enough to call per operator. *)
val check_cancel : t -> unit

(** Run [f] inside a span named [name], announced to the attached
    observers; just [f ()] when none is attached. The span closes even if
    [f] raises, for every observer that saw it open. *)
val with_span : t -> string -> (unit -> 'a) -> 'a

(** Bump a typed primitive counter: always added to the context's running
    totals and announced to the attached observers. The only counter
    path; the metrics registry reads the totals at export (see
    [Secyan_obs.Profile.publish_counters]). *)
val bump : t -> Trace_sink.counter -> int -> unit

(** A copy of the context's counter totals (index with
    [Trace_sink.counter_index]). *)
val counter_totals : t -> int array

(** Overwrite the counter totals with previously captured values
    (checkpoint resume). Observers do not fire — restored work already
    happened, in the run being resumed.
    @raise Invalid_argument on a wrong-length array. *)
val restore_counters : t -> int array -> unit
