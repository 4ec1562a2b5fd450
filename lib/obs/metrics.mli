(** Exporters over the {!Secyan_metrics} registry. The registry's
    control surface (enable, reset, snapshot) and the metric handles
    live in [Secyan_metrics] itself (see DESIGN.md §13 for the
    architecture and naming conventions). *)

type format =
  | Pretty       (** aligned table with histogram count/sum/mean/p50/p90/p99 *)
  | Jsonl        (** one JSON object per metric per line *)
  | Prometheus   (** Prometheus text exposition format *)

(** Bucket-upper-bound estimate of quantile [q] (in [0,1]); [+inf] when
    the quantile falls in the overflow bucket, [0.] on an empty
    histogram. *)
val quantile : Secyan_metrics.histogram_snapshot -> float -> float

val mean : Secyan_metrics.histogram_snapshot -> float

(** One metric as a JSON object (the JSONL line shape). *)
val sample_to_json : Secyan_metrics.sample -> Json.t

(** Render the current registry snapshot in [format] (flushes [ppf]). *)
val export : format -> Format.formatter -> unit

val export_string : format -> string
