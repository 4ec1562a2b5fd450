(** Circuit-based private set intersection with payloads (paper §5.3,
    following Pinkas et al. PSTY19): cuckoo hashing on the receiver's
    side, simple hashing + batched OPPRF on the sender's, and one garbled
    circuit per bin producing secret-shared indicators and payloads.

    Elements must be distinct encodings below 2^60 (the top bits are
    reserved for per-bin dummies). Cost O~(M + N), constant rounds. *)

val element_bits : int

(** The query point standing in for an empty cuckoo bin. *)
val dummy_for_bin : int -> int64

type result = {
  table : Cuckoo_hash.table;       (** the receiver's cuckoo table over X *)
  ind : Secret_share.t array;      (** per bin: shared Ind(x_i in Y) *)
  payload : Secret_share.t array;  (** per bin: shared payload, or 0 *)
}

val n_bins : result -> int

(** Comparison width of the OPPRF targets (sigma plus slack). *)
val cmp_bits : int

(** [with_payloads ctx ~receiver ~alice_set ~bob_set ~bob_payloads]: the
    receiver holds [alice_set], the other party holds [bob_set] with one
    cleartext payload per element.

    @raise Invalid_argument on oversized elements or mismatched payload
    counts. *)
val with_payloads :
  Context.t ->
  receiver:Party.t ->
  alice_set:int64 array ->
  bob_set:int64 array ->
  bob_payloads:int64 array ->
  result

(** Membership-only PSI (all payloads zero): the degenerate case of the
    oblivious semijoin for count queries (paper §6.5). *)
val membership :
  Context.t -> ?receiver:Party.t -> alice_set:int64 array -> bob_set:int64 array -> unit ->
  result
