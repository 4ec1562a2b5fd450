(** The tracer: maintains a stack of open spans over one {!Context.t} and
    turns a protocol execution into a {!Span.t} tree.

    Attachment adds a recording observer ({!Trace_sink.t}) to the
    context's channel, so span boundaries, primitive counter bumps and
    every [Comm.send] / [Comm.bump_rounds] are attributed to the active
    span in real time. Detaching removes it. The tracer draws no
    randomness and never touches the channel, so traced and untraced runs
    produce identical transcripts. *)

open Secyan_crypto

type t = {
  root : Span.t;
  mutable stack : Span.t list;  (** open spans, innermost first (root excluded) *)
  origin : float;               (** Unix time of [create] *)
  mutable attached_to : (Comm.t * Trace_sink.t) option;
}

let now t = Unix.gettimeofday () -. t.origin

let create ?(name = "trace") () =
  { root = Span.create ~name ~start_s:0.; stack = []; origin = Unix.gettimeofday ();
    attached_to = None }

(** The innermost open span (the root when none is open). *)
let active t = match t.stack with span :: _ -> span | [] -> t.root

let enter t name =
  let span = Span.create ~name ~start_s:(now t) in
  Span.add_child (active t) span;
  t.stack <- span :: t.stack

(* Unmatched exits are ignored rather than raised: an observer must never
   turn an otherwise-correct protocol run into a crash. *)
let exit_span t =
  match t.stack with
  | [] -> ()
  | span :: rest ->
      span.Span.dur_s <- now t -. span.Span.start_s;
      t.stack <- rest

let observer t : Trace_sink.t =
  {
    Trace_sink.enter = enter t;
    exit = (fun () -> exit_span t);
    bump =
      (fun counter n ->
        let span = active t in
        let i = Trace_sink.counter_index counter in
        span.Span.self_counters.(i) <- span.Span.self_counters.(i) + n);
    send =
      (fun ~from ~bits ->
        let span = active t in
        (match (from : Party.t) with
        | Alice -> span.Span.self_alice_to_bob_bits <- span.Span.self_alice_to_bob_bits + bits
        | Bob -> span.Span.self_bob_to_alice_bits <- span.Span.self_bob_to_alice_bits + bits);
        span.Span.self_sends <- span.Span.self_sends + 1);
    rounds = (fun n -> let span = active t in span.Span.self_rounds <- span.Span.self_rounds + n);
  }

(** Attach the tracer to [ctx] as an observer of its channel. A tracer
    observes one context at a time.
    @raise Invalid_argument if this tracer is already attached. *)
let attach t ctx =
  (match t.attached_to with
  | Some _ -> invalid_arg "Trace.attach: tracer already attached"
  | None -> ());
  let o = observer t in
  t.attached_to <- Some (ctx.Context.comm, o);
  Comm.attach ctx.Context.comm o

(** Remove the tracer's observer from the context. *)
let detach t =
  match t.attached_to with
  | None -> ()
  | Some (comm, o) ->
      Comm.detach comm o;
      t.attached_to <- None

(** Detach, close any spans left open, stamp the root duration, and
    return the completed span tree. *)
let finish t =
  detach t;
  while t.stack <> [] do
    exit_span t
  done;
  t.root.Span.dur_s <- now t;
  t.root

(** Trace [f]: create a tracer named [name], attach it to [ctx] for the
    duration of [f], and return [f]'s result with the finished span tree.
    The root tally equals exactly the communication [f] generated. *)
let with_tracing ?name ctx f =
  let t = create ?name () in
  attach t ctx;
  match f () with
  | r -> (r, finish t)
  | exception e ->
      ignore (finish t : Span.t);
      raise e

(** Run [f] and return its result together with its wall-clock seconds
    and the communication it generated — the one-stop replacement for
    hand-rolled [Unix.gettimeofday] + [Comm.diff] bracketing. *)
let measure ctx f =
  let before = Comm.tally ctx.Context.comm in
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let seconds = Unix.gettimeofday () -. t0 in
  (result, seconds, Comm.diff (Comm.tally ctx.Context.comm) before)
