(** The observer interface between the protocol substrate and an
    observability layer living above it.

    The crypto library cannot depend on the tracing library (the tracer
    needs [Context] and [Comm]), so the coupling is inverted: every
    [Comm.t] carries a list of observers — records of callbacks — that is
    empty by default. [Context.with_span] announces span boundaries,
    [Context.bump] typed counters, and [Comm.send] / [Comm.bump_rounds]
    traffic to each attached observer in turn. Everything that watches a
    run is one of these observers, the real transport included: it is
    attached first by [Context.create], so observers attached later see a
    send after it crossed the wire (and, when the transport raises, do
    not see the failing send at all). Untraced runs pay one empty-list
    match per event and allocate nothing. *)

(** Typed event counters bumped by the primitives. Semantics:

    - [And_gates]: AND gates garbled (or cost-equivalently simulated) by
      the GC protocol, summed over every execution of every batch.
    - [Ots]: 1-out-of-2 oblivious transfers accounted by the cost model —
      evaluator-input OTs of the GC protocol and the OTs underlying B2A
      conversion. OEP switches are also realized by one OT each but are
      counted separately as [Oep_switches], never double-counted here.
    - [Oep_switches]: switches of programmed permutation networks
      (Benes + duplication layer) evaluated obliviously.
    - [Cuckoo_bins]: cuckoo bins processed by circuit-PSI (the batched
      OPPRF and the per-bin match circuits are sized by this).
    - [B2a_words]: Boolean-to-arithmetic share conversions of one output
      word each.
    - [Gc_circuits]: individual circuit executions (batch size times
      batches) passed through the GC protocol.
    - [Retries]: transport-level retransmissions of a logical message
      (attempts beyond the first; only bumped when a real transport is
      attached to the context).
    - [Timeouts]: transport receive attempts that expired without an
      intact frame.
    - [Frames_corrupted]: frames rejected by the transport's CRC check.
    - [Checkpoints_written]: durable protocol-state snapshots emitted.
    - [Checkpoint_bytes]: total on-disk bytes of those snapshots. Both
      checkpoint counters count {e persistence} work, not protocol work:
      they are excluded from checkpoint payloads so that resumed and
      uninterrupted runs agree on every protocol counter. *)
type counter =
  | And_gates
  | Ots
  | Oep_switches
  | Cuckoo_bins
  | B2a_words
  | Gc_circuits
  | Retries
  | Timeouts
  | Frames_corrupted
  | Checkpoints_written
  | Checkpoint_bytes

let n_counters = 11

let counter_index = function
  | And_gates -> 0
  | Ots -> 1
  | Oep_switches -> 2
  | Cuckoo_bins -> 3
  | B2a_words -> 4
  | Gc_circuits -> 5
  | Retries -> 6
  | Timeouts -> 7
  | Frames_corrupted -> 8
  | Checkpoints_written -> 9
  | Checkpoint_bytes -> 10

let counter_name = function
  | And_gates -> "and_gates"
  | Ots -> "ots"
  | Oep_switches -> "oep_switches"
  | Cuckoo_bins -> "cuckoo_bins"
  | B2a_words -> "b2a_words"
  | Gc_circuits -> "gc_circuits"
  | Retries -> "retries"
  | Timeouts -> "timeouts"
  | Frames_corrupted -> "frames_corrupted"
  | Checkpoints_written -> "checkpoints_written"
  | Checkpoint_bytes -> "checkpoint_bytes"

let all_counters =
  [ And_gates; Ots; Oep_switches; Cuckoo_bins; B2a_words; Gc_circuits; Retries; Timeouts;
    Frames_corrupted; Checkpoints_written; Checkpoint_bytes ]

let counter_help = function
  | And_gates -> "AND gates garbled or cost-equivalently simulated"
  | Ots -> "1-out-of-2 oblivious transfers executed or accounted"
  | Oep_switches -> "oblivious permutation-network switches evaluated"
  | Cuckoo_bins -> "cuckoo bins processed by circuit-PSI"
  | B2a_words -> "Boolean-to-arithmetic share conversions"
  | Gc_circuits -> "individual circuit executions through the GC protocol"
  | Retries -> "transport-level retransmissions"
  | Timeouts -> "transport receive attempts that expired"
  | Frames_corrupted -> "frames rejected by the transport CRC check"
  | Checkpoints_written -> "durable protocol-state snapshots emitted"
  | Checkpoint_bytes -> "total on-disk bytes of checkpoints"

type t = {
  enter : string -> unit;  (** a span opens under the active span *)
  exit : unit -> unit;     (** the active span closes *)
  bump : counter -> int -> unit;  (** a counter of the active span grows *)
  send : from:Party.t -> bits:int -> unit;  (** a transfer, after the tally *)
  rounds : int -> unit;    (** communication rounds, after the tally *)
}

(** The observer that ignores every event: the base of [{ noop with ... }]
    observers that watch only some events. *)
let noop =
  {
    enter = (fun _ -> ());
    exit = (fun () -> ());
    bump = (fun _ _ -> ());
    send = (fun ~from:_ ~bits:_ -> ());
    rounds = (fun _ -> ());
  }
