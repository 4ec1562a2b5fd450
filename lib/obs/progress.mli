(** Live progress reporter: watches [And_gates] bumps and phase spans
    as an observer of the context's channel, renders a refreshing status
    line on stderr, and optionally appends JSONL heartbeats
    ([{"elapsed_s":..,"phase":..,"and_gates":..,"estimated_total":..,
    "pct":..,"eta_s":..}]). See DESIGN.md §13. *)

open Secyan_crypto

type t

(** Start reporting on [ctx]. [total] is the estimated AND-gate total
    from [Secure_yannakakis.estimate_and_gates] (omit for a plain gate
    counter without percentage/ETA); [interval] throttles refreshes
    (seconds, default 0.2); [render] controls the stderr line (default
    true); [heartbeat] receives one JSONL object per refresh. Composes
    with other observers in any attach order. *)
val attach :
  ?total:int ->
  ?interval:float ->
  ?render:bool ->
  ?heartbeat:out_channel ->
  Context.t ->
  t

(** Detach the observer and print the final status line (newline
    terminated). Emits a final heartbeat. Idempotent. *)
val detach : t -> unit

(** AND gates observed so far. *)
val and_gates : t -> int
