(** The tracer: records a protocol execution over one {!Context.t} as a
    {!Span.t} tree.

    Attaching adds a recording observer ({!Trace_sink.t}) to the
    context's channel, so span entry/exit, every [Comm.send] /
    [Comm.bump_rounds], and every primitive counter bump is attributed
    to the innermost open span. It composes with any other observers.
    The tracer draws no randomness and never touches the channel: traced
    and untraced runs produce identical protocol transcripts and tallies.

    The recording observer is single-domain: only the domain that
    attached the tracer may touch it. Parallel batches respect this:
    batch items reach only their own PRGs and the ring, never the
    channel, and the calling domain accounts each batch from the
    circuit's shape, so traced parallel runs yield the same span tree —
    traffic, rounds, and counters — as sequential ones. *)

open Secyan_crypto

type t

val create : ?name:string -> unit -> t

(** Attach to a context as an observer of its channel.
    @raise Invalid_argument if already attached. *)
val attach : t -> Context.t -> unit

(** Remove the tracer's observer. No-op if not attached. *)
val detach : t -> unit

(** Detach, close any spans still open, stamp the root duration, and
    return the completed tree. The root's inclusive tally equals exactly
    the communication generated while attached. *)
val finish : t -> Span.t

(** [with_tracing ctx f] traces [f] over [ctx] and returns its result
    with the finished span tree (also on exception, which is re-raised
    after detaching). *)
val with_tracing : ?name:string -> Context.t -> (unit -> 'a) -> 'a * Span.t

(** [measure ctx f] runs [f] and returns [(result, wall_seconds,
    comm_delta)] — the one-stop replacement for hand-rolled
    [Unix.gettimeofday] + [Comm.diff] bracketing. Works with or without
    a tracer attached. *)
val measure : Context.t -> (unit -> 'a) -> 'a * float * Comm.tally
