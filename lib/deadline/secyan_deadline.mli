(** Cancellation tokens with optional wall-clock deadlines and per-query
    memory budgets — the spine of the supervision layer (DESIGN.md §15).

    A token is a single atomic cell shared by every participant of a
    query: the calling domain, pool workers claiming batch items, and
    transport retry loops. Whoever trips it first (explicit {!cancel},
    deadline expiry, or the memory-budget guard inside {!poll}) wins;
    every later observer sees the same {!reason}. Cancellation is
    cooperative — nothing is killed; code {!check}s the token at phase
    boundaries, batch-item claims, and transport waits, and unwinds with
    {!Cancelled} carrying the reason and the protocol location. *)

(** Why a token fired. *)
type reason =
  | Expired of { budget_s : float }  (** wall-clock deadline exceeded *)
  | Over_budget of { used_mb : float; budget_mb : float }
      (** major-heap footprint exceeded the query's memory budget *)
  | User of string  (** explicit cancellation, e.g. from a server front end *)

(** Raised by {!check}: [where] names the protocol phase or wait site
    that observed the cancellation (e.g. ["gc:shares"], ["net:transfer"]). *)
exception Cancelled of { reason : reason; where : string }

type t

(** A token that never fires on its own (no deadline, no budget). It can
    still be cancelled explicitly — {!constrained} stays [false], so hot
    loops may skip per-item polls and rely on phase-boundary checks. *)
val never : unit -> t

(** [create ?timeout_s ?memory_budget_mb ()] — a token that fires once
    [timeout_s] wall-clock seconds elapse or the process major heap
    exceeds [memory_budget_mb] MiB (sampled from [Gc.quick_stat] inside
    {!poll}/{!check}, throttled to ~5 ms). Omitted limits are absent,
    not zero. *)
val create : ?timeout_s:float -> ?memory_budget_mb:float -> unit -> t

(** True when the token can fire on its own (has a deadline or a memory
    budget) or already has. Pool batches only thread per-item polls for
    constrained tokens; an unconstrained token costs nothing per item. *)
val constrained : t -> bool

(** Trip the token. First caller wins and gets [true]; later calls (from
    any domain) are no-ops returning [false] — the reason never changes
    once set. Safe to call concurrently from multiple domains. *)
val cancel : t -> reason -> bool

(** The reason the token fired, if it has — without sampling clocks or
    GC stats (pure read, any domain). *)
val cancelled : t -> reason option

(** Like {!cancelled}, but first trips the token if its deadline has
    expired or its memory budget is exceeded. This is the per-item /
    per-wait probe: one atomic read when unconstrained or already
    fired; one clock read (and a throttled GC sample) otherwise. *)
val poll : t -> reason option

(** [check ?where t] — {!poll}, then raise {!Cancelled} if fired.
    [where] defaults to ["?"]. *)
val check : ?where:string -> t -> unit

(** Remaining wall-clock budget. [Int64.max_int] ns (resp. [infinity] s)
    when the token has no deadline; [0] once expired. Transport retries
    cap their own timeouts by this, so a retry loop never outlives the
    query budget. *)
val remaining_ns : t -> int64

val remaining_s : t -> float

(** {1 Deadline arithmetic}

    Exposed for property tests: absolute times are nanoseconds since the
    Unix epoch as [int64] (safe until year ~2262), and additions
    saturate instead of wrapping. *)

(** Current wall clock in ns since the epoch ([Unix.gettimeofday]). *)
val now_ns : unit -> int64

(** Saturating addition: clamps to [Int64.max_int] / [Int64.min_int] on
    overflow, so [now + huge_timeout] means "never" rather than a
    deadline in 1677. *)
val sat_add_ns : int64 -> int64 -> int64

(** Seconds to saturating nanoseconds ([<= 0.] maps to [0L], huge or
    [infinity] to [Int64.max_int]). *)
val ns_of_s : float -> int64

val reason_to_string : reason -> string
