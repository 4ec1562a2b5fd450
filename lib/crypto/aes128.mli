(** AES-128 encryption (FIPS 197), pure OCaml, used as the fixed-key
    permutation of the garbled-circuit label hash. Encryption only;
    validated against the FIPS-197 vectors. It is the reference and
    fallback kernel of {!Label_hash}. The label hash runs in place over
    domain-local scratch (safe under parallel garbling) with table-driven
    MixColumns and a key schedule expanded once at module
    initialization. *)

(** The AES S-box, derived from the GF(2^8) arithmetic (test hook). *)
val sbox : int array

type schedule

(** @raise Invalid_argument unless the key is 16 bytes. *)
val expand_key : Bytes.t -> schedule

(** @raise Invalid_argument unless the block is 16 bytes. *)
val encrypt_block : schedule -> Bytes.t -> Bytes.t

(** The fixed key schedule of the label hash, expanded at module
    initialization (no lazy check on the hot path). *)
val fixed_key : schedule

(** The 11 round keys as 176 bytes, round 0 first, each in FIPS byte
    order — the layout the AES-NI kernel loads. *)
val round_keys : schedule -> Bytes.t

(** Fixed-key correlation-robust hash for wire labels under an explicit
    pre-expanded schedule (the per-gate fast path):
    H(x, tweak) = pi(x') XOR x' with x' derived from x and the tweak. *)
val label_hash_with : schedule -> tweak:int64 -> int64 * int64 -> int64 * int64

(** The label hash over [Bytes] planes, for the unboxed garbling kernels:
    reads the label at [src.(soff, soff+16)] ([hi] then [lo], native byte
    order), writes H(label, tweak) at [dst.(doff, doff+16)] in the same
    layout. Bit-identical to {!label_hash_with} at the same tweak value,
    but every intermediate stays unboxed — the call allocates nothing.
    Offsets are {e not} bounds-checked (callers size their planes from
    the circuit before the loop). Every read of [src] precedes the first
    write to [dst], so hashing in place ([src == dst], [soff = doff]) is
    fine; partially overlapping ranges are not. *)
val label_hash_bytes : schedule -> tweak:int -> Bytes.t -> int -> Bytes.t -> int -> unit
