(** Communication accounting for the simulated two-party channel: every
    protocol step declares its transfers (exact bit counts and direction)
    and round boundaries. These counters are the communication figures the
    benchmarks report. *)

type tally = {
  alice_to_bob_bits : int;
  bob_to_alice_bits : int;
  rounds : int;
}

val empty_tally : tally

type t

val create : unit -> t

(** Account [bits] sent by [from] to the other party, then announce the
    send to the observers in attach order. [bits = 0] is legal and a
    no-op on the tally (observers still fire). A real transport is an
    observer like any other ([Context.create] attaches it first): it
    moves a payload of the declared size over the physical channel after
    the tally update, which depends on the declared bit count alone, so
    accounting is bit-identical with and without a transport. An
    observer attached after the transport therefore sees a send once it
    has crossed the wire; if the transport raises, later observers do
    not see the failing send, but the tally has already counted it.
    @raise Invalid_argument on negative counts. *)
val send : t -> from:Party.t -> bits:int -> unit

(** Declare [n] additional communication rounds. *)
val bump_rounds : t -> int -> unit

(** Add an observer of this channel's run: it sees every later
    {!send} and {!bump_rounds} (after the tally is updated), and every
    span and counter event that [Context] announces. Observers fire in
    attach order. With none attached, each event costs one empty-list
    match and allocates nothing. *)
val attach : t -> Trace_sink.t -> unit

(** Remove an observer, compared by physical equality; no-op if it is not
    attached. The observer list is read once per event, so an observer
    may detach itself (or attach another) from inside a callback; the
    change takes effect from the next event. *)
val detach : t -> Trace_sink.t -> unit

(** The attached observers, in attach order. *)
val observers : t -> Trace_sink.t list

val tally : t -> tally

(** Overwrite the counters with an absolute tally, e.g. one captured in a
    checkpoint. Observers do not fire — this is state
    restoration, not traffic. *)
val restore : t -> tally -> unit
val diff : tally -> tally -> tally
val add : tally -> tally -> tally
val total_bits : tally -> int
val total_bytes : tally -> int
val total_megabytes : tally -> float
val equal : tally -> tally -> bool
val pp : Format.formatter -> tally -> unit
