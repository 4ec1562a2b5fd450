(** Differential oracle: run one instance through the naive full-join
    reference, plaintext Yannakakis, the secure protocol (simulated and
    real in-process transports), and — where applicable — the
    cartesian-GC baseline, and demand identical revealed results. *)

type outcome = {
  ok : bool;
  executors : string list;  (** executors that ran on this instance *)
  details : string list;    (** one line per divergence or exception *)
}

val check : Gen.instance -> outcome

(** Whether the cartesian-GC baseline's semantics cover this query
    (ring semiring, scalar aggregate, product below the cost cap). *)
val gc_applicable : Secyan.Query.t -> bool
