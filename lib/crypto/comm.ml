(** Communication accounting for the simulated two-party channel.

    Both parties live in one process, so "sending" a message is an
    accounting event: the protocol code declares every transfer with its
    exact bit count and direction, and declares round boundaries. The
    evaluation of the paper reports communication volume and notes that the
    number of rounds depends only on the query, so these two counters are
    the observables our benchmarks reproduce. *)

type tally = {
  alice_to_bob_bits : int;
  bob_to_alice_bits : int;
  rounds : int;
}

let empty_tally = { alice_to_bob_bits = 0; bob_to_alice_bits = 0; rounds = 0 }

type t = {
  mutable alice_to_bob : int;
  mutable bob_to_alice : int;
  mutable rounds : int;
  (* The run's observers, in attach order; empty by default, so the
     untraced [send] pays one empty-list match and allocates nothing. A
     real transport is one of them (attached by [Context.create]): the
     tally is updated first and from the declared bit count alone, so
     accounting stays bit-identical whether or not bytes cross a wire. *)
  mutable observers : Trace_sink.t list;
}

let create () = { alice_to_bob = 0; bob_to_alice = 0; rounds = 0; observers = [] }

(** Add an observer; it sees every later event. *)
let attach t o = t.observers <- t.observers @ [ o ]

(** Remove an observer (physical equality); no-op if it is not attached. *)
let detach t o = t.observers <- List.filter (fun x -> x != o) t.observers

let observers t = t.observers

let send t ~from ~bits =
  if bits < 0 then
    invalid_arg (Printf.sprintf "Comm.send: bit count %d is negative (expected >= 0)" bits);
  (match (from : Party.t) with
  | Alice -> t.alice_to_bob <- t.alice_to_bob + bits
  | Bob -> t.bob_to_alice <- t.bob_to_alice + bits);
  (* The list is read once, so an observer may detach itself mid-event. *)
  match t.observers with
  | [] -> ()
  | os -> List.iter (fun o -> o.Trace_sink.send ~from ~bits) os

(** Declare [n] additional communication rounds. Primitive protocols bump
    this by their (constant) round count. *)
let bump_rounds t n =
  t.rounds <- t.rounds + n;
  match t.observers with [] -> () | os -> List.iter (fun o -> o.Trace_sink.rounds n) os

let tally t =
  { alice_to_bob_bits = t.alice_to_bob; bob_to_alice_bits = t.bob_to_alice; rounds = t.rounds }

(** Overwrite the counters with an absolute tally. Observers do not
    fire: this is state restoration (checkpoint resume), not
    traffic. *)
let restore t (tally : tally) =
  t.alice_to_bob <- tally.alice_to_bob_bits;
  t.bob_to_alice <- tally.bob_to_alice_bits;
  t.rounds <- tally.rounds

let diff later earlier = {
  alice_to_bob_bits = later.alice_to_bob_bits - earlier.alice_to_bob_bits;
  bob_to_alice_bits = later.bob_to_alice_bits - earlier.bob_to_alice_bits;
  rounds = later.rounds - earlier.rounds;
}

let add t1 t2 = {
  alice_to_bob_bits = t1.alice_to_bob_bits + t2.alice_to_bob_bits;
  bob_to_alice_bits = t1.bob_to_alice_bits + t2.bob_to_alice_bits;
  rounds = t1.rounds + t2.rounds;
}

let total_bits tally = tally.alice_to_bob_bits + tally.bob_to_alice_bits
let total_bytes tally = (total_bits tally + 7) / 8
let total_megabytes tally = float_of_int (total_bytes tally) /. (1024. *. 1024.)

let equal t1 t2 =
  t1.alice_to_bob_bits = t2.alice_to_bob_bits
  && t1.bob_to_alice_bits = t2.bob_to_alice_bits
  && t1.rounds = t2.rounds

let pp fmt t =
  Fmt.pf fmt "A->B %d bits, B->A %d bits, %d rounds" t.alice_to_bob_bits t.bob_to_alice_bits
    t.rounds
