(** Observer interface between the protocol substrate and an
    observability layer above it: each [Comm.t] carries a list of
    observers (empty by default) that see span boundaries, typed counter
    bumps, transfers and rounds. The real transport is one of them,
    attached first by [Context.create]: an observer attached later sees
    a send after it crossed the wire, and does not see a send the
    transport failed with a typed error (the tally still counts it).
    Untraced runs cost one empty-list match per event (no allocation). *)

(** Typed event counters bumped by the primitives:
    AND gates garbled, OTs accounted (GC evaluator inputs and B2A — OEP
    switches are counted separately), permutation-network
    switches, circuit-PSI cuckoo bins, B2A word conversions, GC circuit
    executions, and — when a real transport is attached — transport
    retransmissions, receive timeouts, and CRC-rejected frames; when a
    checkpoint sink is attached, snapshots written and their on-disk
    bytes (persistence work, excluded from checkpoint payloads so resumed
    and uninterrupted runs agree on every protocol counter). *)
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

val n_counters : int

(** Dense index in [0, n_counters), stable across a run. *)
val counter_index : counter -> int

(** Stable snake_case name used by exporters and metrics files. *)
val counter_name : counter -> string

val all_counters : counter list

(** One-line description of a counter, used as metric help text. *)
val counter_help : counter -> string

(** An observer of one run. Build one as [{ noop with ... }] and attach
    it with [Comm.attach]; every callback runs on the domain that drives
    the context. A callback may raise: the event then stops there, and
    the observers after it do not see it. *)
type t = {
  enter : string -> unit;  (** a span opens under the active span *)
  exit : unit -> unit;     (** the active span closes *)
  bump : counter -> int -> unit;  (** a counter of the active span grows *)
  send : from:Party.t -> bits:int -> unit;  (** a transfer, after the tally *)
  rounds : int -> unit;    (** communication rounds, after the tally *)
}

(** The observer that ignores every event. *)
val noop : t
