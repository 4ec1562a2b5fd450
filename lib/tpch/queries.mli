(** The five TPC-H queries of the paper's evaluation (§8.1), plus Q1, Q4
    and Q14 beyond it, as free-connex join-aggregate queries: private
    selections become dummies, nation is rewritten away where public,
    revenue = extendedprice x (100 - discount), relations are partitioned
    between the parties in the worst possible way. Q3/Q10/Q18/Q1/Q4 are
    single protocol runs; Q8, Q9 and Q14 are compositions (§7). *)

open Secyan_crypto
open Secyan_relational

(** Annotation ring width for all TPC-H queries (cent-precision sums). *)
val ring_bits : int

val semiring : Semiring.t

(** A protocol context sized for these queries. [domains] sets the
    parallelism of the GC batch engine (default 1; results are
    bit-identical for every value); [transport] attaches a real framed
    channel behind the communication accounting (default: pure
    simulation); [checkpoint] attaches a durable snapshot stream for
    checkpoint/resume (default: none); [cancel]/[supervisor] thread the
    robustness layer through (default: unconstrained token, no
    supervision — see DESIGN.md §15). *)
val context :
  ?gc_backend:Context.gc_backend -> ?domains:int ->
  ?transport:Secyan_net.Resilient.t -> ?checkpoint:Checkpoint.sink ->
  ?cancel:Deadline.t -> ?supervisor:Domain_pool.supervisor ->
  seed:int64 -> unit -> Context.t

(** {2 The queries} *)

val q3 : Datagen.dataset -> Secyan.Query.t
val q10 : Datagen.dataset -> Secyan.Query.t

(** [threshold] is the HAVING sum(l_quantity) bound (default 300). *)
val q18 : ?threshold:int -> Datagen.dataset -> Secyan.Query.t

(** Q1 restricted to one aggregate: revenue per return flag for lineitems
    shipped before [cutoff] — a single-relation query. *)
val q1 : ?cutoff:Value.t -> Datagen.dataset -> Secyan.Query.t

(** Q4: orders of one quarter with at least one late lineitem, counted
    per ship priority; the EXISTS subquery is computed locally by the
    lineitem owner and padded to |lineitem|. *)
val q4 : ?quarter_start:Value.t -> Datagen.dataset -> Secyan.Query.t

(** What one run of a catalogue query returns: its answer, and the
    communication and wall-clock of all its protocol executions. *)
type outcome = { answer : Secyan.Query.answer; tally : Comm.tally; seconds : float }

(** Composed Q9: per nation, two secure runs, local share subtraction,
    reveal; the answer holds the nonzero (nationkey, year) profits in
    cents. [nations] restricts the 25-way decomposition (default: all). *)
val run_q9 : ?nations:int list -> Context.t -> Datagen.dataset -> outcome

val q9_plaintext : ?nations:int list -> Datagen.dataset -> Secyan.Query.answer

(** Effective input size in bytes: the columns involved in the query, the
    x-axis of Figures 2-6. *)
val effective_input_bytes : Secyan.Query.t -> int

(** {2 The catalogue}

    The eight queries in one list, in the order the evaluation plots
    them: Q3, Q10, Q18, Q8, Q9 (Figures 2–6), then Q1, Q4, Q14. Every
    runner dispatches through it. *)

(** A catalogue query built over one dataset. *)
type instance = {
  query : Secyan.Query.t;
      (** the query a single execution runs; for a composition, its
          inner query (every inner query of Q8, Q9 and Q14 has this
          shape) *)
  run : ?resume:bool -> Context.t -> outcome;
      (** run every execution over the context; [~resume:true] (single
          executions only) restarts from the context's checkpoint sink *)
  plaintext : unit -> Secyan.Query.answer;  (** the plaintext oracle's answer *)
}

type entry = {
  name : string;  (** lower case, as the CLI names it: "q3", ..., "q14" *)
  executions : int;
      (** protocol executions per run: 1, 2 (Q8, Q14) or 50 (Q9); only
          single executions are checkpointable *)
  instantiate : Datagen.dataset -> instance;
}

val catalogue : entry list

(** @raise Invalid_argument for a name not in the catalogue. *)
val find : string -> entry

(** One protocol execution of [q] as an outcome (revealed answer, tally,
    seconds): what a single-execution entry runs, for ad-hoc queries. *)
val run_query : ?resume:bool -> Context.t -> Secyan.Query.t -> outcome
