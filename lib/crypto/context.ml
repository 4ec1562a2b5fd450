(** Shared state for one protocol execution: the annotation ring, security
    parameters, communication channel, and each party's randomness.

    The [dealer] stream realizes the trusted-dealer substitution described
    in DESIGN.md: correlated randomness (OT correlations, OPRF keys, fresh
    resharing masks) is drawn from it. Both parties' views of values derived
    from the dealer are uniformly random, matching what real OT extension /
    OPRF protocols would deliver. *)

type gc_backend =
  | Real  (** actually garble and evaluate circuits (tests, small benches) *)
  | Sim   (** evaluate in the clear inside the runtime; identical cost accounting *)

(** Security parameters (bits), fixed: wire labels are 128-bit blocks. *)
let kappa = 128
let sigma = 40

type t = {
  comm : Comm.t;
  ring : Zn.t;
  gc_backend : gc_backend;
  pool : Domain_pool.t Lazy.t;
      (** the work pool of the batch-garbling engine, spawned on first
          parallel batch *)
  prg_alice : Prg.t;
  prg_bob : Prg.t;
  dealer : Prg.t;
  counters : int array;
      (** running totals of every {!Trace_sink.counter} (indexed by
          [Trace_sink.counter_index]), maintained by {!bump} whether or
          not an observer is attached — the context's own account of its
          primitive work, snapshotted into checkpoints *)
  transport : Secyan_net.Resilient.t option;
      (** the physical channel behind [comm], if any; [None] keeps the
          classic pure-accounting simulation *)
  checkpoint : Checkpoint.sink option;
      (** durable snapshot stream for the run, if checkpointing is on *)
  mutable cancel : Deadline.t;
      (** the query's cancel token (deadline / memory budget / explicit),
          checked at phase boundaries, batch-item claims, and transport
          waits; defaults to an unconstrained {!Deadline.never} *)
  mutable supervisor : Domain_pool.supervisor option;
      (** when set, batch entry points run under pool supervision
          (heartbeats, fail-fast, hang detection) instead of plain
          barriers *)
  mutable current_label : string;
      (** the innermost span name ([with_span] maintains it even when no
          observer is attached) — names the protocol phase in [Cancelled]
          and [Supervision_error] *)
}

(** Bump a typed primitive counter: always added to the context's running
    totals and announced to the attached observers. The one counter path:
    batch items never bump, their callers account them. *)
let bump t counter n =
  let i = Trace_sink.counter_index counter in
  t.counters.(i) <- t.counters.(i) + n;
  match Comm.observers t.comm with
  | [] -> ()
  | os -> List.iter (fun o -> o.Trace_sink.bump counter n) os

(* The transport as an observer of the channel. Span events drive the
   protocol state machine's phase stack, and every send moves a payload
   of the declared size over the real channel. The payload content is a
   fixed filler — the protocol itself is simulated in-process, so only
   the transfer's size, framing, and fate (delivered / retried / failed)
   are meaningful — and the tally never depends on it, so accounted
   communication stays bit-identical to the simulated path.

   Each payload travels inside a typed [Envelope] tagged with the message
   kind the innermost span implies, checked against the current phase
   before anything is sent and chunked at [Envelope.max_body] so no
   single frame exceeds the receive-side acceptance cap. The delivered
   payload is validated against the schema — version, kind, declared and
   actual lengths, phase legality — so a Byzantine peer mutating
   bitwise-intact frames surfaces as a typed
   [Protocol_schema.Protocol_violation], not as silent acceptance. *)
let transport_observer t transport : Trace_sink.t =
  let schema = Protocol_schema.create () in
  let send ~from ~bits =
    let kind = Protocol_schema.check_send schema ~label:t.current_label ~bits in
    let dir =
      match (from : Party.t) with
      | Alice -> Secyan_net.Transport.Alice_to_bob
      | Bob -> Secyan_net.Transport.Bob_to_alice
    in
    let total = (bits + 7) / 8 in
    let max_body = Secyan_net.Envelope.max_body in
    let chunks = max 1 ((total + max_body - 1) / max_body) in
    for c = 0 to chunks - 1 do
      let body_len = min max_body (total - (c * max_body)) in
      let body = Bytes.make (max body_len 0) '\xa5' in
      let msg = Secyan_net.Envelope.encode ~kind body in
      let echoed = Secyan_net.Resilient.transfer transport ~dir msg in
      Protocol_schema.validate schema ~kind ~expect_body:(Bytes.length body) echoed
    done
  in
  {
    Trace_sink.noop with
    enter = Protocol_schema.enter schema;
    exit = (fun () -> Protocol_schema.leave schema);
    send;
  }

let create ?(bits = 32) ?(gc_backend = Sim) ?(domains = 1) ?transport ?checkpoint
    ?cancel ?supervisor ~seed () =
  let master = Prg.create seed in
  let cancel = match cancel with Some c -> c | None -> Deadline.never () in
  let t =
    {
      comm = Comm.create ();
      ring = Zn.create bits;
      gc_backend;
      pool = lazy (Domain_pool.create domains);
      prg_alice = Prg.split master;
      prg_bob = Prg.split master;
      dealer = Prg.split master;
      counters = Array.make Trace_sink.n_counters 0;
      transport;
      checkpoint;
      cancel;
      supervisor;
      current_label = "init";
    }
  in
  (match transport with
  | None -> ()
  | Some tr ->
      Secyan_net.Resilient.set_cancel tr (Some cancel);
      (* Attached first, so every observer added later sees a send
         after it has crossed the wire. *)
      Comm.attach t.comm (transport_observer t tr);
      (* Resilience events surface as typed counters of whatever
         observers are attached when they fire, so tracers attached later
         still see them. *)
      Secyan_net.Resilient.set_listener tr
        (Some
           (fun ev ->
             match (ev : Secyan_net.Resilient.event) with
             | Retry -> bump t Trace_sink.Retries 1
             | Timeout_hit -> bump t Trace_sink.Timeouts 1
             | Corrupt_frame -> bump t Trace_sink.Frames_corrupted 1
             | Duplicate_dropped -> ())));
  t

(** Close the attached transport, if any (idempotent; no-op when
    simulating). *)
let close_transport t =
  match t.transport with None -> () | Some tr -> Secyan_net.Resilient.close tr

(** The context's work pool (spawned on first use). *)
let pool t = Lazy.force t.pool

(** The pool if it was ever spawned, without spawning it. *)
let pool_opt t = if Lazy.is_val t.pool then Some (Lazy.force t.pool) else None

(** Join the pool's worker domains, if any were ever spawned. Contexts
    never need this for correctness (pools also shut down [at_exit]), but
    tests and long-lived processes that churn through many parallel
    contexts should release the domains promptly. *)
let shutdown_pool t = if Lazy.is_val t.pool then Domain_pool.shutdown (Lazy.force t.pool)

let traced t = Comm.observers t.comm <> []

(** Replace the context's cancel token (e.g. per query on a long-lived
    context) and re-point the attached transport at it. *)
let set_cancel t cancel =
  t.cancel <- cancel;
  match t.transport with
  | None -> ()
  | Some tr -> Secyan_net.Resilient.set_cancel tr (Some cancel)

(** Poll the cancel token and raise [Deadline.Cancelled] naming the
    current protocol phase if it has fired. The phase-boundary check. *)
let check_cancel t = Deadline.check ~where:t.current_label t.cancel

(* Close a span opened by [with_span]: the observers that saw it open see
   it close, then the label is restored. Top-level so the untraced path
   allocates no closure. *)
let leave_span t os prev =
  (match os with [] -> () | os -> List.iter (fun o -> o.Trace_sink.exit ()) os);
  t.current_label <- prev

(** Run [f] inside a span named [name], announced to the attached
    observers; when none is attached this is just [f ()] plus phase-label
    maintenance (so cancellation errors can always name their phase). The
    span is closed, and the label restored, even when [f] raises.
    Observers never draw randomness, so observing cannot perturb the
    protocol transcript. *)
let with_span t name f =
  let prev = t.current_label in
  t.current_label <- name;
  let os = Comm.observers t.comm in
  (match os with [] -> () | os -> List.iter (fun o -> o.Trace_sink.enter name) os);
  match f () with
  | r ->
      leave_span t os prev;
      r
  | exception e ->
      leave_span t os prev;
      raise e

(** A copy of the context's counter totals (index by
    [Trace_sink.counter_index]). *)
let counter_totals t = Array.copy t.counters

(** Overwrite the counter totals with previously captured values
    (checkpoint resume). Observers do not fire: restored work already
    happened, in the run being resumed. *)
let restore_counters t totals =
  if Array.length totals <> Trace_sink.n_counters then
    invalid_arg
      (Printf.sprintf "Context.restore_counters: %d totals, expected %d"
         (Array.length totals) Trace_sink.n_counters);
  Array.blit totals 0 t.counters 0 Trace_sink.n_counters

let prg_of t = function
  | Party.Alice -> t.prg_alice
  | Party.Bob -> t.prg_bob

let ring_bits t = Zn.bits t.ring
