(** Obliviousness auditor: run the secure protocol on an instance and on
    a same-shape different-content variant, and demand bit-identical
    communication tallies, round counts, revealed cardinality, and
    Trace_sink event streams. *)

type report = {
  ok : bool;
  details : string list;  (** one line per observed divergence *)
}

val check : Gen.instance -> report

(** The observer event stream of one secure run of a query at [seed],
    as {!check} records it: one line per span entry ([E]), exit ([X]),
    counter bump ([B]), send ([S]) and round bump ([R]). *)
val transcript : seed:int64 -> Secyan.Query.t -> string

(** The content-varied twin: identical public shape (names, schemas,
    cardinalities, owners), injectively renamed tuple values, and a
    zero-pattern-preserving annotation transform. Exposed for tests. *)
val variant : Secyan.Query.t -> Secyan.Query.t
